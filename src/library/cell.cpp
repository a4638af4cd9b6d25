#include "library/cell.hpp"

namespace tpi {

bool func_is_sequential(CellFunc f) {
  return f == CellFunc::kDff || f == CellFunc::kSdff || f == CellFunc::kTsff;
}

int CellSpec::find_pin(std::string_view pin_name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].name == pin_name) return static_cast<int>(i);
  }
  return -1;
}

const TimingArc* CellSpec::arc_from(int from_pin) const {
  for (const auto& arc : arcs) {
    if (arc.from_pin == from_pin) return &arc;
  }
  return nullptr;
}

}  // namespace tpi
