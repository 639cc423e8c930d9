#include "lint/rules.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace csmlint {
namespace {

std::string Trimmed(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) {
    return "";
  }
  const std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool IsId(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == s;
}
bool IsP(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
}
bool IsMemberAccess(const std::vector<Token>& t, std::size_t i) {
  return i > 0 && (IsP(t, i - 1, ".") || IsP(t, i - 1, "->"));
}
// `std::name` — the identifier at i is qualified by exactly std::.
bool StdQualified(const std::vector<Token>& t, std::size_t i) {
  return i >= 2 && IsP(t, i - 1, "::") && IsId(t, i - 2, "std");
}

// Reconstructs the type spelled between reinterpret_cast< and its matching
// '>' into a canonical string ("std::uint64_t*", "unsigned char *"-style):
// identifiers separated by spaces, '::' tight, everything else verbatim.
// Returns true (with the type) if a full angle group was found.
bool CastTargetType(const std::vector<Token>& t, std::size_t open,
                    std::size_t* after, std::string* type) {
  int depth = 0;
  std::string s;
  std::size_t i = open;
  for (; i < t.size(); ++i) {
    if (IsP(t, i, "<")) {
      ++depth;
      if (depth == 1) {
        continue;
      }
    } else if (IsP(t, i, ">")) {
      if (--depth == 0) {
        *after = i + 1;
        *type = std::move(s);
        return true;
      }
    } else if (IsP(t, i, ">>")) {
      depth -= 2;
      if (depth <= 0) {
        *after = i + 1;
        *type = std::move(s);
        return true;
      }
    } else if (IsP(t, i, ";") || IsP(t, i, "{")) {
      break;  // malformed cast; give up
    }
    if (depth >= 1) {
      const bool tight = IsP(t, i, "::") ||
                         (!s.empty() && s.back() == ':') || s.empty() ||
                         t[i].kind == TokKind::kPunct;
      if (!tight) {
        s.push_back(' ');
      }
      s += t[i].text;
    }
  }
  return false;
}

// word-cast-store: reinterpret_cast<T*> where T is a mutable arithmetic
// type that is not 32 bits wide — the cast that precedes a raw multi-byte
// or sub-word store into page memory. const pointers (reads) pass.
bool BadWordCast(const std::string& type) {
  static const char* kBadBases[] = {
      "std::uint8_t",  "std::int8_t",  "std::uint16_t", "std::int16_t",
      "std::uint64_t", "std::int64_t", "unsigned char", "unsigned short",
      "unsigned long", "char",         "short",         "long",
      "float",         "double",
  };
  if (type.find('*') == std::string::npos) {
    return false;
  }
  if (type.rfind("const ", 0) == 0) {
    return false;
  }
  for (const char* base : kBadBases) {
    if (type.rfind(base, 0) == 0) {
      return true;
    }
  }
  return false;
}

// raw-mc-write's sanctioned sites: the protocol's frame accessors and the
// superpage relocation that moves master frames between arenas. Every other
// frame access goes through the accessors.
bool FrameAccessor(const std::string& qualified) {
  static const std::set<std::string> kAccessors = {
      "CashmereProtocol::MasterPtr", "CashmereProtocol::WorkingPtr",
      "CashmereProtocol::RelocateSuperpage"};
  return kAccessors.count(qualified) != 0;
}

}  // namespace

void RunFileLocalRules(Universe& u, int file, std::vector<Finding>* out) {
  FileUnit& f = u.files[static_cast<std::size_t>(file)];
  // Unjustified waivers are findings themselves (and never suppress), so a
  // rubber stamp cannot silence the pass.
  for (const Waiver& w : f.waivers) {
    if (!w.justified) {
      out->push_back(Finding{f.path, w.line + 1, "bad-waiver",
                             "csm-lint: allow() without a '-- justification'"});
    }
  }
  if (f.word_access) {
    return;  // the sanctioned word-atomics implementation site
  }
  std::set<std::pair<int, std::string>> seen;
  auto report = [&](int line0, const char* rule) {
    if (!seen.insert({line0, rule}).second) {
      return;
    }
    if (Waived(f, line0, rule)) {
      return;
    }
    const std::string text = line0 < static_cast<int>(f.raw_lines.size())
                                 ? Trimmed(f.raw_lines[line0])
                                 : "";
    out->push_back(Finding{f.path, line0 + 1, rule, text});
  };

  // Token ranges of the frame-accessor bodies in this file.
  std::vector<std::pair<std::size_t, std::size_t>> accessor_bodies;
  for (const Function& fn : u.fns) {
    if (fn.file == file && FrameAccessor(fn.qualified)) {
      accessor_bodies.emplace_back(fn.body_begin, fn.body_end);
    }
  }
  auto in_accessor = [&](std::size_t i) {
    return std::any_of(accessor_bodies.begin(), accessor_bodies.end(),
                       [i](const auto& r) { return i >= r.first && i < r.second; });
  };

  const std::vector<Token>& t = f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& n = t[i].text;
    const int line = t[i].line;

    // atomic-bypass: std::atomic_ref anywhere outside word_access.hpp.
    if (n == "atomic_ref") {
      report(line, "atomic-bypass");
    }
    // raw-view-protect: `.Protect(` / `->Protect(` member calls outside
    // the vm/ layer (per-page path bypassing the PermBatch engine).
    if (!f.vm_dir && n == "Protect" && IsMemberAccess(t, i) &&
        IsP(t, i + 1, "(")) {
      report(line, "raw-view-protect");
    }
    // raw-mc-write: minting a raw frame pointer outside mc/ and the
    // protocol's frame accessors.
    if (f.copy_domain && !f.mc_dir && (n == "PagePtr" || n == "protocol_base") &&
        IsMemberAccess(t, i) && IsP(t, i + 1, "(") && !in_accessor(i)) {
      report(line, "raw-mc-write");
    }
    // raw-dir-write: directory mutations outside directory.{cpp,hpp}.
    if (f.copy_domain && !f.dir_home &&
        (n == "Write" || n == "WriteAndSnapshot") && IsMemberAccess(t, i) &&
        IsP(t, i + 1, "(")) {
      report(line, "raw-dir-write");
    }
    if (f.copy_domain) {
      // raw-page-copy: bulk byte copies in the shared-memory domains.
      if (n == "memcpy" || n == "memmove" || n == "memset") {
        report(line, "raw-page-copy");
      }
      if ((n == "copy" || n == "copy_n" || n == "fill" || n == "fill_n") &&
          StdQualified(t, i)) {
        report(line, "raw-page-copy");
      }
      if (n == "reinterpret_cast" && IsP(t, i + 1, "<")) {
        std::size_t after = 0;
        std::string type;
        if (CastTargetType(t, i + 1, &after, &type) && BadWordCast(type)) {
          report(line, "word-cast-store");
        }
      }
    }
    // fault-path-blocking: the file-local form, confined to
    // fault_dispatcher.* (the interprocedural fault-path-signal-safety
    // rule covers everything those files reach).
    if (f.fault_path) {
      const bool blocking =
          n == "sleep_for" || n == "sleep_until" || n == "usleep" ||
          n == "nanosleep" || n == "malloc" || n == "calloc" ||
          n == "realloc" || n == "new" ||
          ((n == "mutex" || n == "condition_variable") && StdQualified(t, i));
      if (blocking) {
        report(line, "fault-path-blocking");
      }
    }
  }
}

namespace {

std::string HeldNames(const std::vector<LockClass>& held) {
  std::string s;
  for (LockClass c : held) {
    if (!s.empty()) {
      s += ", ";
    }
    s += LockClassName(c);
  }
  return s;
}

bool HoldsNonPage(const std::vector<LockClass>& held) {
  return std::any_of(held.begin(), held.end(),
                     [](LockClass c) { return c != LockClass::kPage; });
}

// lock-order: the discipline is page-lock-first with leaf inner classes
// (docs/concurrency.md "Lock ordering"), so the check is uniform — any
// acquisition while a non-page class is held violates the table. Acquiring
// a page lock under a leaf is an inversion; anything else nests a leaf.
void LockOrderRule(Universe& u, std::vector<Finding>* out) {
  std::set<std::string> seen;
  auto report = [&](FileUnit& f, int line0, LockClass acq,
                    const std::vector<LockClass>& held,
                    const std::string& via) {
    const char* kind = acq == LockClass::kPage ? "page-lock-first inversion"
                                               : "never-nest leaf";
    const std::string key = f.path + ":" + std::to_string(line0) + ":" +
                            LockClassName(acq) + ":" + via;
    if (!seen.insert(key).second) {
      return;
    }
    if (Waived(f, line0, "lock-order")) {
      return;
    }
    std::string text = via.empty() ? std::string("acquires ")
                                   : "call to " + via + " may acquire ";
    text += LockClassName(acq);
    text += " while holding {" + HeldNames(held) + "} (" + kind + ")";
    out->push_back(Finding{f.path, line0 + 1, "lock-order", std::move(text)});
  };
  for (Function& fn : u.fns) {
    FileUnit& f = u.files[fn.file];
    for (const AcquireSite& a : fn.acquires) {
      if (a.cls != LockClass::kUnknown && HoldsNonPage(a.held)) {
        report(f, a.line, a.cls, a.held, "");
      }
    }
    for (const CallSite& c : fn.calls) {
      if (!HoldsNonPage(c.held)) {
        continue;
      }
      std::set<LockClass> acq;
      for (int tgt : u.Resolve(c)) {
        acq.insert(u.fns[tgt].trans_acq.begin(), u.fns[tgt].trans_acq.end());
      }
      for (LockClass cls : acq) {
        if (cls != LockClass::kUnknown) {
          report(f, c.line, cls, c.held, c.name);
        }
      }
    }
  }
}

// Helpers sanctioned on the fault path: reachability stops here.
bool SignalSafeHelper(const Universe& u, const Function& fn) {
  if (u.files[fn.file].word_access) {
    return true;
  }
  static const std::set<std::string> kClasses = {
      "SpinLock", "SpinLockGuard", "Backoff", "TraceRing", "OwnerCell",
  };
  if (kClasses.count(fn.class_name) != 0) {
    return true;
  }
  static const std::set<std::string> kNames = {"TraceEmit", "TraceActive",
                                               "Pause"};
  return kNames.count(fn.name) != 0;
}

bool SignalUnsafeToken(const std::vector<Token>& t, std::size_t i) {
  const std::string& n = t[i].text;
  static const std::set<std::string> kAlloc = {
      "new",         "malloc",      "calloc",    "realloc",      "free",
      "make_unique", "make_shared", "push_back", "emplace_back", "to_string",
  };
  static const std::set<std::string> kSleep = {
      "sleep_for", "sleep_until", "usleep", "nanosleep", "sleep",
  };
  static const std::set<std::string> kLibc = {
      "printf", "fprintf", "sprintf",  "snprintf", "vprintf",
      "vfprintf", "vsnprintf", "puts", "fputs",    "putc",
      "putchar", "fwrite",  "fread",   "fopen",    "fclose",
      "fflush",  "exit",    "getenv",  "strerror", "perror",
  };
  static const std::set<std::string> kStdSync = {
      "mutex",        "recursive_mutex",    "timed_mutex",
      "shared_mutex", "condition_variable", "condition_variable_any",
  };
  if (kAlloc.count(n) != 0 || kSleep.count(n) != 0 || kLibc.count(n) != 0) {
    return true;
  }
  return kStdSync.count(n) != 0 && StdQualified(t, i);
}

// fault-path-signal-safety: BFS over the call graph from the fault
// dispatcher entry points; every transitively reachable function's body is
// scanned for operations that must never run under SIGSEGV (allocation,
// std sync primitives, sleeps, non-async-signal-safe libc).
void SignalSafetyRule(Universe& u, std::vector<Finding>* out) {
  std::map<int, int> parent;  // reached fn -> predecessor (-1 at an entry)
  std::vector<int> order;
  for (std::size_t i = 0; i < u.fns.size(); ++i) {
    const Function& fn = u.fns[i];
    const bool entry = (u.files[fn.file].fault_path && fn.name == "OnSignal") ||
                       fn.name == "HandleFault";
    if (entry && parent.emplace(static_cast<int>(i), -1).second) {
      order.push_back(static_cast<int>(i));
    }
  }
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const int fi = order[qi];
    for (const CallSite& c : u.fns[fi].calls) {
      for (int tgt : u.Resolve(c)) {
        if (parent.count(tgt) != 0 || SignalSafeHelper(u, u.fns[tgt])) {
          continue;
        }
        parent[tgt] = fi;
        order.push_back(tgt);
      }
    }
  }
  auto chain = [&u, &parent](int fi) {
    std::vector<std::string> names;
    bool truncated = false;
    for (int k = fi; k != -1; k = parent[k]) {
      if (names.size() >= 5) {
        truncated = true;
        break;
      }
      names.push_back(u.fns[k].qualified);
    }
    std::string s = truncated ? "... -> " : "";
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      if (it != names.rbegin()) {
        s += " -> ";
      }
      s += *it;
    }
    return s;
  };
  for (int fi : order) {
    Function& fn = u.fns[fi];
    FileUnit& f = u.files[fn.file];
    const std::vector<Token>& t = f.lex.tokens;
    std::set<int> lines;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (t[i].kind != TokKind::kIdent || !SignalUnsafeToken(t, i)) {
        continue;
      }
      if (!lines.insert(t[i].line).second) {
        continue;
      }
      if (Waived(f, t[i].line, "fault-path-signal-safety")) {
        continue;
      }
      out->push_back(
          Finding{f.path, t[i].line + 1, "fault-path-signal-safety",
                  "signal-unsafe `" + t[i].text +
                      "` reachable from the fault handler (" + chain(fi) + ")"});
    }
  }
}

}  // namespace

void RunInterprocRules(Universe& u, std::vector<Finding>* out) {
  LockOrderRule(u, out);
  SignalSafetyRule(u, out);
}

void RunStaleWaiverRule(Universe& u, std::vector<Finding>* out) {
  for (FileUnit& f : u.files) {
    for (const Waiver& w : f.waivers) {
      if (w.justified && !w.used) {
        out->push_back(Finding{
            f.path, w.line + 1, "stale-waiver",
            "allow(" + w.rule +
                ") suppresses nothing here; remove it or re-justify"});
      }
    }
  }
}

}  // namespace csmlint
