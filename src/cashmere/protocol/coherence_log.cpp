#include "cashmere/protocol/coherence_log.hpp"

namespace cashmere {

CoherenceLog::CoherenceLog(std::uint32_t entries)
    : capacity_(entries),
      ring_(std::make_unique_for_overwrite<CoherenceRecord[]>(capacity_)),
      // 4x the record ring: gate slots only hold {seq, vt}, and the larger
      // ring keeps apply times findable well after the record slot recycles.
      gate_(static_cast<std::size_t>(entries) * 4) {}

CoherenceEngine::CoherenceEngine(const Config& cfg) {
  for (int u = 0; u < cfg.units(); ++u) {
    logs_.emplace_back(kCoherenceLogEntries);
  }
}

bool CoherenceEngine::AllEmpty() const {
  for (const CoherenceLog& log : logs_) {
    if (!log.Empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace cashmere
