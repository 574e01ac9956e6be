#include "core/delta_overlay.h"

namespace rcj {

const char* LiveSideName(LiveSide side) {
  return side == LiveSide::kQ ? "q" : "p";
}

bool ParseLiveSideName(const std::string& name, LiveSide* out) {
  if (name == "q") {
    *out = LiveSide::kQ;
  } else if (name == "p") {
    *out = LiveSide::kP;
  } else {
    return false;
  }
  return true;
}

std::vector<PointRecord> EffectivePointset(
    const std::vector<PointRecord>& base, const DeltaOverlay& overlay,
    LiveSide side) {
  std::vector<PointRecord> out;
  const std::unordered_set<PointId>* dead = overlay.dead_or_null(side);
  out.reserve(base.size() + overlay.delta(side).size());
  for (const PointRecord& rec : base) {
    if (dead != nullptr && dead->count(rec.id) != 0) continue;
    out.push_back(rec);
  }
  for (const PointRecord& rec : overlay.delta(side)) {
    out.push_back(rec);
  }
  return out;
}

}  // namespace rcj
