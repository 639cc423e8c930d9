// csm_lint rules. Full catalogue, waiver syntax, and the lock-order table
// live in docs/linting.md.
#ifndef CSM_LINT_RULES_HPP_
#define CSM_LINT_RULES_HPP_

#include <string>
#include <vector>

#include "lint/model.hpp"

namespace csmlint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based (display)
  std::string rule;
  std::string text;
};

// The file-local rules (raw-page-copy, word-cast-store, atomic-bypass,
// fault-path-blocking, raw-view-protect, raw-dir-write, raw-mc-write,
// bad-waiver), re-hosted on the token stream: occurrences inside comments,
// string literals, and preprocessor lines cannot fire. At most one finding
// per (line, rule). Marks used waivers on the file. Requires
// u.BuildCallGraph() to have run (raw-mc-write exempts the protocol's frame
// accessors by function body).
void RunFileLocalRules(Universe& u, int file, std::vector<Finding>* out);

// The interprocedural rules over a built call graph:
//   lock-order                 acquisitions (direct or via a resolved call
//                              chain) while a never-nest leaf is held, or
//                              page-lock-first inversions.
//   fault-path-signal-safety   signal-unsafe operations in any function
//                              reachable from the fault-dispatcher entry
//                              points (OnSignal / HandleFault).
// Requires u.BuildCallGraph() to have run.
void RunInterprocRules(Universe& u, std::vector<Finding>* out);

// stale-waiver: justified waivers that suppressed nothing this run. Must
// run after every other rule (it keys off Waiver::used).
void RunStaleWaiverRule(Universe& u, std::vector<Finding>* out);

}  // namespace csmlint

#endif  // CSM_LINT_RULES_HPP_
