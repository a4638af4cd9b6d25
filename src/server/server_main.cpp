// tpi_flow_server — the flow daemon. Configuration comes from the
// environment via FlowConfig::from_env (TPI_SERVER_SOCKET,
// TPI_SERVER_CACHE_MB, TPI_BENCH_JOBS for the worker count, TPI_BENCH_SCALE
// as the default job scale, ...); a few flags override those fields of the
// config for ad-hoc runs:
//
//   tpi_flow_server [--socket PATH] [--workers N] [--cache-mb N]
//
// The daemon serves until a shutdown RPC arrives, then drains queued jobs
// and exits 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flow/flow_config.hpp"
#include "server/flow_server.hpp"

int main(int argc, char** argv) {
  tpi::FlowConfig config = tpi::FlowConfig::from_env();

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tpi_flow_server: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      config.server_socket = need_value("--socket");
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      config.bench_jobs = std::atoi(need_value("--workers"));
    } else if (std::strcmp(argv[i], "--cache-mb") == 0) {
      config.server_cache_mb = std::atoi(need_value("--cache-mb"));
    } else {
      std::fprintf(stderr,
                   "usage: tpi_flow_server [--socket PATH] [--workers N] [--cache-mb N]\n");
      return 2;
    }
  }

  config.apply_process_settings();
  tpi::FlowServer server(config);
  std::string error;
  if (!server.listen(&error)) {
    std::fprintf(stderr, "tpi_flow_server: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "[server] listening on %s (%d workers, %d MiB cache)\n",
               server.socket_path().c_str(), config.effective_bench_jobs(),
               config.server_cache_mb);
  server.wait_until_shutdown();
  server.stop();
  const tpi::DesignCache::Stats cs = server.cache_stats();
  std::fprintf(stderr, "[server] shut down: cache hits=%llu misses=%llu evictions=%llu\n",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.evictions));
  return 0;
}
