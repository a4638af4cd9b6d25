// Log level parsing. TPI_LOG_LEVEL itself is read by FlowConfig::from_env
// (flow_config_test covers it).
#include <gtest/gtest.h>

#include "util/log.hpp"

namespace tpi {
namespace {

TEST(LogLevelTest, ParsesAllNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("silent"), LogLevel::kSilent);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

}  // namespace
}  // namespace tpi
