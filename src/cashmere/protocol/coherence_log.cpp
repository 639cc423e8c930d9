#include "cashmere/protocol/coherence_log.hpp"

namespace cashmere {

namespace {

std::uint32_t ClampEntries(std::uint32_t entries) {
  return entries == 0 ? 1u : entries;
}

}  // namespace

CoherenceLog::CoherenceLog(std::uint32_t entries)
    : capacity_(ClampEntries(entries)),
      ring_(std::make_unique_for_overwrite<CoherenceRecord[]>(capacity_)),
      // 4x the record ring: gate slots only hold {seq, vt}, and the larger
      // ring keeps apply times findable well after the record slot recycles.
      gate_(static_cast<std::size_t>(ClampEntries(entries)) * 4) {}

CoherenceEngine::CoherenceEngine(const Config& cfg) {
  const std::uint32_t entries = ClampEntries(cfg.async.log_entries);
  for (int u = 0; u < cfg.units(); ++u) {
    logs_.emplace_back(entries);
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
