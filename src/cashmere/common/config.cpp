#include "cashmere/common/config.hpp"

#include <cstdio>
#include <cstdlib>
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
    {" interrupts", [](const Config& c) { return c.delivery == DeliveryMode::kInterrupt; }},
    {" trace", [](const Config& c) { return c.trace.enabled; }},
    {" dir-sharded", [](const Config& c) { return c.dir.mode == DirMode::kSharded; }},
    {" async-release", [](const Config& c) { return c.AsyncRelease(); }},
    {" mc-shm", [](const Config& c) { return c.mc.transport == McTransportKind::kShm; }},
};

}  // namespace

bool ParseTransportKind(const char* name, McTransportKind* out) {
  if (std::strcmp(name, "inproc") == 0) {
    *out = McTransportKind::kInProc;
    return true;
  }
  if (std::strcmp(name, "shm") == 0) {
    *out = McTransportKind::kShm;
    return true;
  }
  return false;
}

bool ApplyTransportEnv(Config* cfg) {
  const char* env = std::getenv("CSM_TRANSPORT");
  if (env == nullptr) {
    return true;
  }
  return ParseTransportKind(env, &cfg->mc.transport);
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
