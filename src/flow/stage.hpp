// Stage model for the Fig. 2 flow (§3.2): the six named stages the
// FlowEngine executes, a bitset type for selecting them, and per-stage wall
// clock records. Callers that act between stages (progress lines, tests)
// step the engine with FlowEngine::run_stage.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tpi {

/// The six stages of the paper's tool flow, in execution order, plus the
/// optional post-flow verification stage (miter-based equivalence against
/// the pre-transform netlist + ATPG pattern replay).
enum class Stage : std::uint8_t {
  kTpiScan = 0,         ///< 1. TPI & scan insertion
  kFloorplanPlace = 1,  ///< 2. floorplanning & placement
  kReorderAtpg = 2,     ///< 3. layout-driven scan chain reordering + ATPG
  kEco = 3,             ///< 4. ECO: clock trees, fillers, routing
  kExtract = 4,         ///< 5. layout extraction
  kSta = 5,             ///< 6. static timing analysis
  kVerify = 6,          ///< 7. (opt-in) equivalence check + pattern replay
};

/// The paper's Fig. 2 stages; StageMask::all() covers exactly these.
inline constexpr int kNumFlowStages = 6;
/// All stages including the opt-in verify stage (array sizes, loops).
inline constexpr int kNumStages = 7;

/// All stages in execution order (for range-for loops).
inline constexpr std::array<Stage, kNumStages> kAllStages = {
    Stage::kTpiScan, Stage::kFloorplanPlace, Stage::kReorderAtpg, Stage::kEco,
    Stage::kExtract, Stage::kSta,            Stage::kVerify,
};

/// Stable snake_case stage name, also used as the JSON key in sweep reports.
constexpr const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kTpiScan: return "tpi_scan";
    case Stage::kFloorplanPlace: return "floorplan_place";
    case Stage::kReorderAtpg: return "reorder_atpg";
    case Stage::kEco: return "eco";
    case Stage::kExtract: return "extract";
    case Stage::kSta: return "sta";
    case Stage::kVerify: return "verify";
  }
  return "?";
}

std::optional<Stage> stage_from_name(std::string_view name);

/// Bitset over the six stages. The structural stages (tpi_scan,
/// floorplan_place, eco) gate netlist/layout construction: masking one off
/// also starves every downstream stage that needs its product, and the
/// engine skips those with a warning. The analysis stages (reorder_atpg,
/// extract, sta) gate their analyses only; in particular, masking off
/// reorder_atpg skips compact ATPG while the scan-chain stitch — a
/// structural prerequisite of the downstream layout stages — still runs
/// (attributed to the eco stage), so the layout is identical with and
/// without ATPG.
class StageMask {
 public:
  constexpr StageMask() = default;

  /// The six paper stages. The verify stage is opt-in: add it with
  /// .with(Stage::kVerify) (the FlowConfig "verify" key does) and set
  /// FlowOptions::verify so the engine snapshots the netlist for it.
  static constexpr StageMask all() { return StageMask((1u << kNumFlowStages) - 1u); }
  static constexpr StageMask none() { return StageMask(0); }
  /// Stages kTpiScan..s inclusive — the "run the flow up to here" mask.
  static constexpr StageMask through(Stage s) {
    return StageMask((1u << (static_cast<unsigned>(s) + 1u)) - 1u);
  }

  constexpr bool has(Stage s) const { return (bits_ & bit(s)) != 0; }
  constexpr StageMask with(Stage s) const { return StageMask(bits_ | bit(s)); }
  constexpr StageMask without(Stage s) const { return StageMask(bits_ & ~bit(s)); }
  constexpr bool empty() const { return bits_ == 0; }

  constexpr bool operator==(const StageMask& o) const { return bits_ == o.bits_; }
  constexpr bool operator!=(const StageMask& o) const { return bits_ != o.bits_; }

 private:
  explicit constexpr StageMask(unsigned bits) : bits_(bits) {}
  static constexpr unsigned bit(Stage s) { return 1u << static_cast<unsigned>(s); }
  unsigned bits_ = 0;
};

/// Wall-clock per stage for one flow run. Stages that were masked off (or
/// skipped for missing prerequisites) have ran = false and wall_ms = 0.
struct StageTimings {
  std::array<double, kNumStages> wall_ms{};
  std::array<bool, kNumStages> ran{};

  double operator[](Stage s) const { return wall_ms[static_cast<std::size_t>(s)]; }
  bool stage_ran(Stage s) const { return ran[static_cast<std::size_t>(s)]; }
  double total_ms() const {
    double t = 0.0;
    for (double v : wall_ms) t += v;
    return t;
  }
};

}  // namespace tpi
