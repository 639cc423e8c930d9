#include "cashmere/common/stats.hpp"

#include <cstdio>

namespace cashmere {

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kLockAcquires:
      return "Lock Acquires";
    case Counter::kFlagAcquires:
      return "Flag Acquires";
    case Counter::kBarriers:
      return "Barriers";
    case Counter::kReadFaults:
      return "Read Faults";
    case Counter::kWriteFaults:
      return "Write Faults";
    case Counter::kPageTransfers:
      return "Page Transfers";
    case Counter::kDirectoryUpdates:
      return "Directory Updates";
    case Counter::kWriteNotices:
      return "Write Notices";
    case Counter::kExclTransitions:
      return "Excl. Mode Transitions";
    case Counter::kDataBytes:
      return "Data (bytes)";
    case Counter::kTwinCreations:
      return "Twin Creations";
    case Counter::kIncomingDiffs:
      return "Incoming Diffs";
    case Counter::kFlushUpdates:
      return "Flush-Updates";
    case Counter::kShootdowns:
      return "Shootdowns";
    case Counter::kPageFlushes:
      return "Page Flushes";
    case Counter::kPolls:
      return "Polls";
    case Counter::kMessagesHandled:
      return "Messages Handled";
    case Counter::kHomeRelocations:
      return "Home Relocations";
    case Counter::kDiffBlocksScanned:
      return "Diff Blocks Scanned";
    case Counter::kDiffBlocksSkipped:
      return "Diff Blocks Skipped";
    case Counter::kDiffRunsEmitted:
      return "Diff Runs Emitted";
    case Counter::kDiffRunBytes:
      return "Diff Run Bytes";
    case Counter::kDiffRunApplyBytes:
      return "Diff Run Apply Bytes";
    case Counter::kTraceEvents:
      return "Trace Events";
    case Counter::kTraceDrops:
      return "Trace Drops";
    case Counter::kMprotectCalls:
      return "Mprotect Calls";
    case Counter::kMprotectPagesCoalesced:
      return "Mprotect Pages Coalesced";
    case Counter::kCohLogPublishes:
      return "Coh. Log Publishes";
    case Counter::kCohLogApplies:
      return "Coh. Log Applies";
    case Counter::kCohLogPublishStalls:
      return "Coh. Log Publish Stalls";
    case Counter::kCohGateWaits:
      return "Coh. Gate Waits";
    case Counter::kReleasePathNs:
      return "Release Path (ns)";
    case Counter::kDirP2PUpdates:
      return "Dir. P2P Updates";
    case Counter::kDirBroadcastUpdates:
      return "Dir. Broadcast Updates";
    case Counter::kDirCacheHits:
      return "Dir. Cache Hits";
    case Counter::kDirSegmentsAllocated:
      return "Dir. Segments Allocated";
    case Counter::kNumCounters:
      break;
  }
  return "?";
}

Stats& Stats::operator+=(const Stats& other) {
  for (int i = 0; i < kNumCounters; ++i) {
    counts[i] += other.counts[i];
  }
  for (int i = 0; i < kNumTimeCategories; ++i) {
    time_ns[i] += other.time_ns[i];
  }
  return *this;
}

std::string StatsReport::CsvHeader() {
  std::string out = "exec_time_s";
  for (int i = 0; i < kNumCounters; ++i) {
    std::string name = CounterName(static_cast<Counter>(i));
    for (char& c : name) {
      if (c == ' ' || c == '.' || c == '(' || c == ')' || c == '/') {
        c = '_';
      }
    }
    out += ",";
    out += name;
  }
  for (int i = 0; i < kNumTimeCategories; ++i) {
    std::string name = TimeCategoryName(static_cast<TimeCategory>(i));
    for (char& c : name) {
      if (c == ' ' || c == '&') {
        c = '_';
      }
    }
    out += ",time_" + name + "_s";
  }
  return out;
}

std::string StatsReport::ToCsvRow() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", ExecTimeSec());
  std::string out = buf;
  for (int i = 0; i < kNumCounters; ++i) {
    std::snprintf(buf, sizeof(buf), ",%llu",
                  static_cast<unsigned long long>(total.counts[i]));
    out += buf;
  }
  for (int i = 0; i < kNumTimeCategories; ++i) {
    std::snprintf(buf, sizeof(buf), ",%.9f", static_cast<double>(total.time_ns[i]) / 1e9);
    out += buf;
  }
  return out;
}

std::string StatsReport::ToString() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-24s %12.6f s\n", "Exec. time (virtual)", ExecTimeSec());
  out += line;
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    std::snprintf(line, sizeof(line), "%-24s %12llu\n", CounterName(c),
                  static_cast<unsigned long long>(total.Get(c)));
    out += line;
  }
  for (int i = 0; i < kNumTimeCategories; ++i) {
    std::snprintf(line, sizeof(line), "%-24s %12.6f s\n",
                  TimeCategoryName(static_cast<TimeCategory>(i)),
                  static_cast<double>(total.time_ns[i]) / 1e9);
    out += line;
  }
  return out;
}

}  // namespace cashmere
