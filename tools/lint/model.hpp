// csm_lint analysis model: files, waivers, functions, and the whole-tree
// call graph the interprocedural rules run on.
//
// The extractor is deliberately approximate — it links calls by (qualified)
// name, treats virtual dispatch as "every function with that name", and
// tracks lock scopes by brace depth. That over-approximates reachability
// (safe for fault-path-signal-safety) and tracks the documented lock
// classes conservatively enough for lock-order: page locks may nest under
// page locks, every other class is a leaf, so a mis-tracked *page* hold
// can never manufacture a violation. Known blind spots (callbacks invoked
// under a callee's lock, macro expansion, manual Lock/Unlock across
// control flow that token order does not reflect) are documented in
// docs/linting.md.
#ifndef CSM_LINT_MODEL_HPP_
#define CSM_LINT_MODEL_HPP_

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace csmlint {

// The six documented lock classes (docs/concurrency.md "Lock ordering")
// plus kUnknown for everything the table does not govern. THIS ENUM IS THE
// MACHINE-READABLE LOCK TABLE: the ordering discipline itself is uniform —
// kPage may be held while acquiring anything (including another kPage, the
// superpage-relocation double-lock); every other class is a leaf, so any
// acquisition while a non-page class is held is a violation. Adding a lock
// class = adding an enumerator + a classifier arm (see docs/linting.md
// "Amending the lock table").
enum class LockClass {
  kPage,          // per-page PageLocal::lock
  kViewCommit,    // per-view commit_lock_ (vm/view.hpp)
  kLogProducer,   // per-unit CoherenceLog producer_lock_
  kMcOrder,       // MC ordered-op lock (order_lock_ / SharedWordLock)
  kDirStripe,     // sharded directory 64-way order-lock stripe / OrderLock()
  kDirEntryCache, // sharded directory per-slot CacheEntry::lock
  kUnknown,       // not one of the documented classes; never checked
};

const char* LockClassName(LockClass c);

struct Waiver {
  int line = 0;  // 0-based
  std::string rule;
  bool justified = false;
  bool used = false;  // set when the waiver suppresses a finding
};

struct FileUnit {
  std::string path;      // display path (as given on the command line)
  std::string filename;  // basename
  std::vector<std::string> raw_lines;
  LexedFile lex;
  // Domain classification (path-derived, overridable by csm-lint-domain:).
  bool copy_domain = false;  // protocol/, mc/, msg/, vm/
  bool fault_path = false;   // fault_dispatcher.*
  bool word_access = false;  // the sanctioned atomics site
  bool vm_dir = false;
  bool mc_dir = false;
  bool dir_home = false;  // directory.{cpp,hpp}
  bool dir_sharded = false;
  bool interproc = false;  // participates in the call graph
  std::vector<std::string> expects;  // fixture rule expectations
  bool expects_none = false;         // `csm-lint-expect: none`
  std::vector<Waiver> waivers;
};

// Reads and lexes one file; classifies its domain from the path and any
// csm-lint-domain: directive; parses waivers and fixture expectations from
// comment text (string literals can no longer fake either). Returns false
// if the file cannot be read.
bool LoadFileUnit(const std::filesystem::path& path, const std::string& display,
                  FileUnit* out);

// True if a justified waiver for `rule` covers 0-based line `line`: on the
// line itself, or above it across a contiguous run of comment-only lines.
// Marks the covering waiver used (stale-waiver keys off this).
bool Waived(FileUnit& f, int line, const std::string& rule);

struct AcquireSite {
  LockClass cls = LockClass::kUnknown;
  int line = 0;                  // 0-based
  std::vector<LockClass> held;   // known classes held at the acquisition
};

struct CallSite {
  std::string name;       // unqualified callee name
  std::string qualified;  // "Class::name" when written qualified, else ""
  int line = 0;           // 0-based
  std::vector<LockClass> held;  // known classes held at the call
};

struct Function {
  int file = -1;  // index into Universe::files
  std::string name;        // unqualified
  std::string qualified;   // Class::name (namespaces ignored) or name
  std::string class_name;  // enclosing class, "" at namespace scope
  int def_line = 0;                      // 0-based line of the body '{'
  std::size_t sig_begin = 0;             // token index: start of declarator
  std::size_t body_begin = 0, body_end = 0;  // token range inside { }
  std::vector<LockClass> entry_held;     // CSM_REQUIRES classes (decl-merged)
  std::vector<AcquireSite> acquires;     // direct guard / manual Lock sites
  std::vector<CallSite> calls;
  std::set<LockClass> trans_acq;         // fixpoint: direct + callees'
};

// One call-graph universe: a lint run over a tree, or one fixture group.
struct Universe {
  std::vector<FileUnit> files;
  std::vector<Function> fns;
  std::map<std::string, std::vector<int>> by_name;
  std::map<std::string, std::vector<int>> by_qualified;

  // Extracts functions from every interproc file, merges CSM_REQUIRES
  // annotations from declarations into definitions by qualified name,
  // analyzes bodies (acquire/call sites with held-set tracking), and runs
  // the transitive-acquire fixpoint.
  void BuildCallGraph();

  // Call targets: exact qualified match if the call was written qualified
  // and resolves; otherwise every function sharing the unqualified name.
  const std::vector<int>& Resolve(const CallSite& c) const;
};

}  // namespace csmlint

#endif  // CSM_LINT_MODEL_HPP_
