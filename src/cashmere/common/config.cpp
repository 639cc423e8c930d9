#include "cashmere/common/config.hpp"

#include <cstdio>
#include <cstring>

namespace cashmere {

const char* ProtocolVariantName(ProtocolVariant v) {
  switch (v) {
    case ProtocolVariant::kTwoLevel:
      return "2L";
    case ProtocolVariant::kTwoLevelShootdown:
      return "2LS";
    case ProtocolVariant::kTwoLevelGlobalLock:
      return "2L-lock";
    case ProtocolVariant::kOneLevelDiff:
      return "1LD";
    case ProtocolVariant::kOneLevelWriteDouble:
      return "1L";
  }
  return "?";
}

bool IsTwoLevel(ProtocolVariant v) {
  switch (v) {
    case ProtocolVariant::kTwoLevel:
    case ProtocolVariant::kTwoLevelShootdown:
    case ProtocolVariant::kTwoLevelGlobalLock:
      return true;
    case ProtocolVariant::kOneLevelDiff:
    case ProtocolVariant::kOneLevelWriteDouble:
      return false;
  }
  return true;
}

namespace {

// The single registration point for variant switches: every boolean knob
// that changes protocol behaviour or accounting gets one row here, and
// Describe() renders the active ones in registration order. Adding a
// variant means adding a field to its option group and one row below.
struct VariantFlag {
  const char* label;  // rendered with a leading space when active
  bool (*active)(const Config&);
};

constexpr VariantFlag kVariantFlags[] = {
    {" home-opt", [](const Config& c) { return c.home_opt; }},
    {" no-first-touch", [](const Config& c) { return !c.first_touch; }},
    {" interrupts", [](const Config& c) { return c.delivery == DeliveryMode::kInterrupt; }},
    {" trace", [](const Config& c) { return c.trace.enabled; }},
    {" async-release", [](const Config& c) { return c.AsyncRelease(); }},
};

}  // namespace

bool ParseProtocolVariant(const char* name, ProtocolVariant* out) {
  for (const ProtocolVariant v :
       {ProtocolVariant::kTwoLevel, ProtocolVariant::kTwoLevelShootdown,
        ProtocolVariant::kTwoLevelGlobalLock, ProtocolVariant::kOneLevelDiff,
        ProtocolVariant::kOneLevelWriteDouble}) {
    if (std::strcmp(ProtocolVariantName(v), name) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::string Config::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %d:%d heap=%zuKB pages=%zu sp=%zu",
                ProtocolVariantName(protocol), total_procs(), procs_per_node,
                heap_bytes / 1024, pages(), superpage_pages);
  std::string out = buf;
  for (const VariantFlag& flag : kVariantFlags) {
    if (flag.active(*this)) {
      out += flag.label;
    }
  }
  return out;
}

}  // namespace cashmere
