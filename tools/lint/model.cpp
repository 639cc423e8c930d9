#include "lint/model.hpp"

#include <algorithm>
#include <fstream>

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

// Parses a waiver (the allow marker, rule name, and dash-dash
// justification) out of comment text.
bool ParseWaiverText(const std::string& comment, std::string* rule,
                     bool* justified) {
  // Split literal so the lint's own sources never look like a waiver.
  static const std::string kMarker = std::string("csm-lint: ") + "allow(";
  const std::size_t at = comment.find(kMarker);
  if (at == std::string::npos) {
    return false;
  }
  const std::size_t open = at + kMarker.size() - 1;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) {
    return false;
  }
  *rule = comment.substr(open + 1, close - open - 1);
  const std::size_t dashes = comment.find("--", close);
  *justified =
      dashes != std::string::npos && !Trimmed(comment.substr(dashes + 2)).empty();
  return true;
}

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",   "return", "sizeof",
      "alignof",  "decltype", "noexcept", "catch",    "new",    "delete",
      "throw",    "typeid",   "assert",   "defined",  "int",    "char",
      "void",     "bool",     "long",     "short",    "float",  "double",
      "unsigned", "signed",   "auto",     "const",    "constexpr",
      "static_assert", "operator", "co_await", "co_yield", "co_return",
      "requires", "explicit", "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast",
  };
  return kKeywords.count(s) != 0;
}

bool IsId(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == s;
}
bool IsP(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
}

// Index just past the brace/paren group opened at i (t[i] must be the
// opener). Tolerates truncated input by stopping at e.
std::size_t SkipGroup(const std::vector<Token>& t, std::size_t i, std::size_t e,
                      const char* open, const char* close) {
  int depth = 0;
  for (; i < e; ++i) {
    if (IsP(t, i, open)) {
      ++depth;
    } else if (IsP(t, i, close)) {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return e;
}

// Skips a template argument/parameter list opened at '<'. '>>' closes two.
std::size_t SkipAngles(const std::vector<Token>& t, std::size_t i,
                       std::size_t e) {
  int depth = 0;
  for (; i < e; ++i) {
    if (IsP(t, i, "<")) {
      ++depth;
    } else if (IsP(t, i, ">")) {
      if (--depth <= 0) {
        return i + 1;
      }
    } else if (IsP(t, i, ">>")) {
      depth -= 2;
      if (depth <= 0) {
        return i + 1;
      }
    } else if (IsP(t, i, ";") || IsP(t, i, "{")) {
      return i;  // malformed; bail without consuming
    }
  }
  return e;
}

// Declared-type map for the lock classifier: scans a token range for
// "PageLocal[&*] name" / "CacheEntry[&*] name" declarations (parameters
// and locals — the codebase declares both explicitly, pinned by the clang
// thread-safety annotations which need the same explicitness).
std::map<std::string, std::string> CollectTypes(const std::vector<Token>& t,
                                                std::size_t b, std::size_t e) {
  std::map<std::string, std::string> types;
  for (std::size_t i = b; i + 1 < e; ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "PageLocal" && t[i].text != "CacheEntry")) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < e && (IsP(t, j, "&") || IsP(t, j, "*") || IsId(t, j, "const"))) {
      ++j;
    }
    if (j < e && t[j].kind == TokKind::kIdent) {
      types[t[j].text] = t[i].text;
    }
  }
  return types;
}

// The lock classifier: maps a lock expression (guard argument, manual-lock
// receiver, or CSM_REQUIRES argument) to one of the documented classes.
LockClass ClassifyLockExpr(const std::vector<Token>& t, std::size_t b,
                           std::size_t e,
                           const std::map<std::string, std::string>& types,
                           const std::string& class_name) {
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& n = t[i].text;
    if (n == "commit_lock_" || n == "commit_lock") {
      return LockClass::kViewCommit;
    }
    if (n == "producer_lock_") {
      return LockClass::kLogProducer;
    }
    if (n == "order_lock_") {
      return LockClass::kMcOrder;
    }
    if (n == "OrderLockFor" || n == "order_locks_" || n == "OrderLock") {
      return LockClass::kDirStripe;
    }
    if (n == "lock") {
      if (i >= b + 2 && (IsP(t, i - 1, ".") || IsP(t, i - 1, "->")) &&
          t[i - 2].kind == TokKind::kIdent) {
        const auto it = types.find(t[i - 2].text);
        if (it != types.end()) {
          return it->second == "PageLocal" ? LockClass::kPage
                                          : LockClass::kDirEntryCache;
        }
      } else if (e - b == 1 && class_name == "PageLocal") {
        // Bare `lock` in PageLocal's own inline annotations.
        return LockClass::kPage;
      }
    }
  }
  return LockClass::kUnknown;
}

// Thread-safety attribute macros that may trail a declarator. CSM_REQUIRES
// contributes entry-held classes; the rest are skipped (with their args).
bool IsTsaMacro(const std::string& s) {
  return s.rfind("CSM_", 0) == 0;
}

// --- Pass 1: function extraction ----------------------------------------

struct DeclAnnotations {
  // qualified name -> CSM_REQUIRES classes seen on declarations
  std::map<std::string, std::vector<LockClass>> requires_by_name;
};

class Extractor {
 public:
  Extractor(const FileUnit& f, int file_index, std::vector<Function>* fns,
            DeclAnnotations* decls)
      : f_(f), t_(f.lex.tokens), file_(file_index), fns_(fns), decls_(decls) {}

  void Run() { ParseScope(0, t_.size()); }

 private:
  std::string CurrentClass() const {
    return class_stack_.empty() ? "" : class_stack_.back();
  }
  std::string QualifiedScope() const {
    std::string q;
    for (const std::string& c : class_stack_) {
      q += c;
      q += "::";
    }
    return q;
  }

  void ParseScope(std::size_t b, std::size_t e) {
    std::size_t i = b;
    while (i < e) {
      if (t_[i].kind == TokKind::kPp) {
        ++i;
        continue;
      }
      if (IsId(t_, i, "template")) {
        ++i;
        if (IsP(t_, i, "<")) {
          i = SkipAngles(t_, i, e);
        }
        continue;
      }
      if (IsId(t_, i, "namespace")) {
        std::size_t j = i + 1;
        while (j < e && (t_[j].kind == TokKind::kIdent || IsP(t_, j, "::"))) {
          ++j;
        }
        if (IsP(t_, j, "{")) {
          const std::size_t end = SkipGroup(t_, j, e, "{", "}");
          ParseScope(j + 1, end - 1);  // namespaces are transparent
          i = end;
        } else {
          while (j < e && !IsP(t_, j, ";")) {
            ++j;  // namespace alias
          }
          i = j + 1;
        }
        continue;
      }
      if (IsId(t_, i, "class") || IsId(t_, i, "struct") ||
          IsId(t_, i, "union")) {
        i = ParseClassLike(i, e);
        continue;
      }
      if (IsId(t_, i, "enum")) {
        std::size_t j = i + 1;
        while (j < e && !IsP(t_, j, "{") && !IsP(t_, j, ";")) {
          ++j;
        }
        if (IsP(t_, j, "{")) {
          j = SkipGroup(t_, j, e, "{", "}");
        }
        while (j < e && !IsP(t_, j, ";")) {
          ++j;
        }
        i = j + 1;
        continue;
      }
      if (IsId(t_, i, "extern") && i + 2 < e &&
          t_[i + 1].kind == TokKind::kString && IsP(t_, i + 2, "{")) {
        const std::size_t end = SkipGroup(t_, i + 2, e, "{", "}");
        ParseScope(i + 3, end - 1);
        i = end;
        continue;
      }
      if (IsId(t_, i, "using") || IsId(t_, i, "typedef") ||
          IsId(t_, i, "friend") || IsId(t_, i, "static_assert")) {
        while (i < e && !IsP(t_, i, ";")) {
          ++i;
        }
        ++i;
        continue;
      }
      if (IsP(t_, i, ";") || IsP(t_, i, "}")) {
        ++i;
        continue;
      }
      i = ParseDecl(i, e);
    }
  }

  // class/struct/union: recurse into a definition body with the class name
  // pushed; skip elaborated-type uses and forward declarations.
  std::size_t ParseClassLike(std::size_t i, std::size_t e) {
    std::size_t j = i + 1;
    std::string name;
    while (j < e) {
      if (IsP(t_, j, "[") && IsP(t_, j + 1, "[")) {  // [[attributes]]
        j = SkipGroup(t_, j, e, "[", "]");
        continue;
      }
      if (t_[j].kind == TokKind::kIdent && IsP(t_, j + 1, "(")) {
        // Capability macro attribute, e.g. CSM_CAPABILITY("mutex").
        j = SkipGroup(t_, j + 1, e, "(", ")");
        continue;
      }
      if (t_[j].kind == TokKind::kIdent) {
        name = t_[j].text;
        ++j;
        if (IsP(t_, j, "<")) {  // explicit specialization
          j = SkipAngles(t_, j, e);
        }
        break;
      }
      break;  // anonymous struct — fall through to body scan
    }
    // Find the def body '{', a ';' (fwd decl / variable), or give up.
    while (j < e && !IsP(t_, j, "{") && !IsP(t_, j, ";") && !IsP(t_, j, "(")) {
      if (IsP(t_, j, "<")) {
        j = SkipAngles(t_, j, e);
        continue;
      }
      ++j;
    }
    if (IsP(t_, j, "{")) {
      const std::size_t end = SkipGroup(t_, j, e, "{", "}");
      class_stack_.push_back(name);
      ParseScope(j + 1, end - 1);
      class_stack_.pop_back();
      // Consume any declarator list up to the terminating ';'.
      std::size_t k = end;
      while (k < e && !IsP(t_, k, ";")) {
        ++k;
      }
      return k + 1;
    }
    if (IsP(t_, j, ";")) {
      return j + 1;
    }
    return i + 1;  // elaborated type in a declaration; reparse normally
  }

  // A declaration at class/namespace scope. Finds "name (params)" and then
  // decides declaration vs definition; records functions and declaration
  // CSM_REQUIRES annotations.
  std::size_t ParseDecl(std::size_t start, std::size_t e) {
    std::size_t j = start;
    while (j < e) {
      if (IsP(t_, j, ";")) {
        return j + 1;  // no function here
      }
      if (IsP(t_, j, "{")) {
        // Aggregate initializer or an unrecognized body (operators): skip.
        return SkipGroup(t_, j, e, "{", "}");
      }
      if (IsP(t_, j, "(")) {
        if (j > start && t_[j - 1].kind == TokKind::kIdent &&
            !IsKeyword(t_[j - 1].text)) {
          return AfterParams(start, j, e);
        }
        j = SkipGroup(t_, j, e, "(", ")");
        continue;
      }
      ++j;
    }
    return e;
  }

  // name_at = index of '('; t_[name_at-1] is the candidate function name.
  std::size_t AfterParams(std::size_t start, std::size_t name_at,
                          std::size_t e) {
    const std::string name = t_[name_at - 1].text;
    // Walk back over a qualifier chain: A::B::name.
    std::string qualifier;
    {
      std::size_t k = name_at - 1;
      while (k >= 2 && IsP(t_, k - 1, "::") &&
             t_[k - 2].kind == TokKind::kIdent) {
        qualifier = t_[k - 2].text + "::" + qualifier;
        k -= 2;
      }
    }
    const std::size_t params_end = SkipGroup(t_, name_at, e, "(", ")");
    std::vector<LockClass> req;
    std::map<std::string, std::string> types;
    bool types_ready = false;
    auto classify_args = [&](std::size_t open) -> std::size_t {
      const std::size_t close = SkipGroup(t_, open, e, "(", ")");
      if (!types_ready) {
        types = CollectTypes(t_, start, params_end);
        types_ready = true;
      }
      // Split args at top-level commas.
      std::size_t ab = open + 1;
      int depth = 0;
      for (std::size_t k = open + 1; k + 1 < close; ++k) {
        if (IsP(t_, k, "(")) {
          ++depth;
        } else if (IsP(t_, k, ")")) {
          --depth;
        } else if (depth == 0 && IsP(t_, k, ",")) {
          req.push_back(ClassifyLockExpr(t_, ab, k, types, CurrentClass()));
          ab = k + 1;
        }
      }
      if (ab < close - 1) {
        req.push_back(ClassifyLockExpr(t_, ab, close - 1, types, CurrentClass()));
      }
      return close;
    };

    std::size_t j = params_end;
    while (j < e) {
      if (IsP(t_, j, ";")) {
        RecordDecl(qualifier, name, req);
        return j + 1;
      }
      if (IsP(t_, j, "=")) {
        while (j < e && !IsP(t_, j, ";")) {
          if (IsP(t_, j, "{")) {
            j = SkipGroup(t_, j, e, "{", "}");
            continue;
          }
          ++j;
        }
        RecordDecl(qualifier, name, req);
        return j + 1;
      }
      if (IsId(t_, j, "CSM_REQUIRES") && IsP(t_, j + 1, "(")) {
        j = classify_args(j + 1);
        continue;
      }
      if (t_[j].kind == TokKind::kIdent && IsTsaMacro(t_[j].text)) {
        ++j;
        if (IsP(t_, j, "(")) {
          j = SkipGroup(t_, j, e, "(", ")");
        }
        continue;
      }
      if (IsP(t_, j, ":") && !IsP(t_, j, "::")) {
        // Constructor member-initializer list: parse it structurally —
        // (name, balanced () or {} group, ','?) repeated — so an
        // initializer brace is never mistaken for the body. After the
        // last initializer the next '{' is the function body.
        ++j;
        while (j < e) {
          while (j < e && (t_[j].kind == TokKind::kIdent ||
                           IsP(t_, j, "::") || IsP(t_, j, "."))) {
            ++j;
          }
          if (IsP(t_, j, "<")) {
            j = SkipAngles(t_, j, e);
            continue;
          }
          if (IsP(t_, j, "(")) {
            j = SkipGroup(t_, j, e, "(", ")");
          } else if (IsP(t_, j, "{")) {
            j = SkipGroup(t_, j, e, "{", "}");
          } else {
            break;  // malformed; fall back to the outer loop
          }
          if (IsP(t_, j, ",")) {
            ++j;
            continue;
          }
          break;  // no more initializers: j should sit on the body '{'
        }
        continue;
      }
      if (IsP(t_, j, "(")) {
        j = SkipGroup(t_, j, e, "(", ")");
        continue;
      }
      if (IsP(t_, j, "<")) {
        j = SkipAngles(t_, j, e);
        continue;
      }
      if (IsP(t_, j, "{")) {
        const std::size_t body_end = SkipGroup(t_, j, e, "{", "}");
        Function fn;
        fn.file = file_;
        fn.name = name;
        fn.qualified = !qualifier.empty() ? qualifier + name
                                          : QualifiedScope() + name;
        fn.class_name = !qualifier.empty()
                            ? qualifier.substr(0, qualifier.size() - 2)
                            : CurrentClass();
        fn.def_line = t_[j].line;
        fn.sig_begin = start;
        fn.body_begin = j + 1;
        fn.body_end = body_end - 1;
        for (LockClass c : req) {
          fn.entry_held.push_back(c);
        }
        fns_->push_back(std::move(fn));
        return body_end;
      }
      ++j;  // const, noexcept, override, &, &&, ->, trailing-return tokens
    }
    return e;
  }

  void RecordDecl(const std::string& qualifier, const std::string& name,
                  const std::vector<LockClass>& req) {
    if (req.empty()) {
      return;
    }
    const std::string q =
        !qualifier.empty() ? qualifier + name : QualifiedScope() + name;
    auto& dst = decls_->requires_by_name[q];
    dst.insert(dst.end(), req.begin(), req.end());
  }

  const FileUnit& f_;
  const std::vector<Token>& t_;
  int file_;
  std::vector<Function>* fns_;
  DeclAnnotations* decls_;
  std::vector<std::string> class_stack_;
};

// --- Pass 2: body analysis -----------------------------------------------

void AnalyzeBody(const FileUnit& f, Function& fn) {
  const std::vector<Token>& t = f.lex.tokens;
  const auto types = CollectTypes(t, fn.sig_begin, fn.body_end);
  struct Held {
    LockClass cls;
    int depth;    // brace depth at declaration; -1 = held on entry
    bool manual;  // manual Lock(): released only by Unlock()
  };
  std::vector<Held> held;
  for (LockClass c : fn.entry_held) {
    if (c != LockClass::kUnknown) {
      held.push_back(Held{c, -1, false});
    }
  }
  auto snapshot = [&held] {
    std::vector<LockClass> v;
    for (const Held& h : held) {
      v.push_back(h.cls);
    }
    return v;
  };
  int depth = 0;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") {
        ++depth;
      } else if (tok.text == "}") {
        --depth;
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [depth](const Held& h) {
                                    return !h.manual && h.depth > depth;
                                  }),
                   held.end());
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) {
      continue;
    }
    // RAII guard declaration: SpinLockGuard name(lock-expr);
    if ((tok.text == "SpinLockGuard" || tok.text == "SharedWordLockGuard") &&
        i + 2 < fn.body_end && t[i + 1].kind == TokKind::kIdent &&
        IsP(t, i + 2, "(")) {
      const std::size_t close = SkipGroup(t, i + 2, fn.body_end, "(", ")");
      const LockClass cls =
          tok.text == "SharedWordLockGuard"
              ? LockClass::kMcOrder
              : ClassifyLockExpr(t, i + 3, close - 1, types, fn.class_name);
      fn.acquires.push_back(AcquireSite{cls, tok.line, snapshot()});
      if (cls != LockClass::kUnknown) {
        held.push_back(Held{cls, depth, false});
      }
      i = close - 1;
      continue;
    }
    // Manual lock calls: X.lock.Lock() / lock_.TryLock() / ... Sequential
    // token order approximates control flow; a page-lock tracking miss can
    // never manufacture a violation (page may nest under page).
    if ((tok.text == "Lock" || tok.text == "TryLock" || tok.text == "Unlock") &&
        i >= fn.body_begin + 2 && IsP(t, i + 1, "(") &&
        (IsP(t, i - 1, ".") || IsP(t, i - 1, "->")) &&
        t[i - 2].kind == TokKind::kIdent) {
      std::size_t rb = i - 2;
      if (rb >= fn.body_begin + 2 &&
          (IsP(t, rb - 1, ".") || IsP(t, rb - 1, "->")) &&
          t[rb - 2].kind == TokKind::kIdent) {
        rb -= 2;
      }
      const LockClass cls = ClassifyLockExpr(t, rb, i, types, fn.class_name);
      if (tok.text == "Unlock") {
        for (auto it = held.rbegin(); it != held.rend(); ++it) {
          if (it->manual && it->cls == cls) {
            held.erase(std::next(it).base());
            break;
          }
        }
      } else if (cls != LockClass::kUnknown) {
        fn.acquires.push_back(AcquireSite{cls, tok.line, snapshot()});
        held.push_back(Held{cls, depth, true});
      }
      i = SkipGroup(t, i + 1, fn.body_end, "(", ")") - 1;
      continue;
    }
    // Call site: identifier immediately followed by '('.
    if (i + 1 < fn.body_end && IsP(t, i + 1, "(") && !IsKeyword(tok.text)) {
      CallSite c;
      c.name = tok.text;
      if (i >= fn.body_begin + 2 && IsP(t, i - 1, "::") &&
          t[i - 2].kind == TokKind::kIdent) {
        c.qualified = t[i - 2].text + "::" + tok.text;
      }
      c.line = tok.line;
      c.held = snapshot();
      fn.calls.push_back(std::move(c));
    }
  }
}

}  // namespace

const char* LockClassName(LockClass c) {
  switch (c) {
    case LockClass::kPage:
      return "page";
    case LockClass::kViewCommit:
      return "view-commit";
    case LockClass::kLogProducer:
      return "log-producer";
    case LockClass::kMcOrder:
      return "mc-order";
    case LockClass::kDirStripe:
      return "dir-stripe";
    case LockClass::kDirEntryCache:
      return "dir-entry-cache";
    case LockClass::kUnknown:
      return "unknown";
  }
  return "unknown";
}

bool LoadFileUnit(const std::filesystem::path& path, const std::string& display,
                  FileUnit* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    out->raw_lines.push_back(line);
    text += line;
    text += '\n';
  }
  out->path = display;
  out->filename = path.filename().string();
  out->lex = Lex(text);
  out->lex.comment_text.resize(out->raw_lines.size());
  out->lex.comment_only.resize(out->raw_lines.size());

  const std::string generic = path.generic_string();
  const std::string& name = out->filename;
  out->copy_domain = generic.find("/protocol/") != std::string::npos ||
                     generic.find("/mc/") != std::string::npos ||
                     generic.find("/msg/") != std::string::npos ||
                     generic.find("/vm/") != std::string::npos;
  out->fault_path = name.rfind("fault_dispatcher", 0) == 0;
  out->word_access = name == "word_access.hpp";
  out->vm_dir = generic.find("/vm/") != std::string::npos;
  out->mc_dir = generic.find("/mc/") != std::string::npos;
  out->dir_home = name == "directory.cpp" || name == "directory.hpp";
  out->dir_sharded = name.rfind("directory_sharded", 0) == 0;

  // Directives and waivers live in comments only: a string literal can no
  // longer fake (or accidentally carry) either.
  static const std::string kDomain = std::string("csm-lint-") + "domain:";
  static const std::string kExpect = std::string("csm-lint-") + "expect:";
  for (std::size_t l = 0; l < out->lex.comment_text.size(); ++l) {
    const std::string& c = out->lex.comment_text[l];
    if (c.empty()) {
      continue;
    }
    std::size_t at = c.find(kDomain);
    if (at != std::string::npos) {
      const std::string domain = Trimmed(c.substr(at + kDomain.size()));
      out->copy_domain = domain == "protocol" || domain == "mc" ||
                         domain == "msg" || domain == "vm" ||
                         domain == "dir-sharded";
      out->fault_path = domain == "fault-path";
      out->vm_dir = domain == "vm";
      out->mc_dir = domain == "mc";
      out->dir_sharded = domain == "dir-sharded";
    }
    at = c.find(kExpect);
    if (at != std::string::npos) {
      std::string rest = Trimmed(c.substr(at + kExpect.size()));
      const std::size_t space = rest.find_first_of(" \t");
      if (space != std::string::npos) {
        rest = rest.substr(0, space);
      }
      if (rest == "none") {
        out->expects_none = true;
      } else if (!rest.empty()) {
        out->expects.push_back(rest);
      }
    }
    std::string rule;
    bool justified = false;
    if (ParseWaiverText(c, &rule, &justified)) {
      out->waivers.push_back(
          Waiver{static_cast<int>(l), rule, justified, false});
    }
  }
  return true;
}

bool Waived(FileUnit& f, int line, const std::string& rule) {
  auto match_at = [&f, &rule](int l) -> Waiver* {
    for (Waiver& w : f.waivers) {
      if (w.line == l && w.rule == rule && w.justified) {
        return &w;
      }
    }
    return nullptr;
  };
  if (Waiver* w = match_at(line)) {
    w->used = true;
    return true;
  }
  for (int j = line - 1; j >= 0; --j) {
    if (j >= static_cast<int>(f.lex.comment_only.size()) ||
        !f.lex.comment_only[j]) {
      break;  // the contiguous comment block (waiver window) ends
    }
    if (Waiver* w = match_at(j)) {
      w->used = true;
      return true;
    }
  }
  return false;
}

void Universe::BuildCallGraph() {
  DeclAnnotations decls;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    if (!files[fi].interproc) {
      continue;
    }
    Extractor(files[fi], static_cast<int>(fi), &fns, &decls).Run();
  }
  for (std::size_t i = 0; i < fns.size(); ++i) {
    by_name[fns[i].name].push_back(static_cast<int>(i));
    by_qualified[fns[i].qualified].push_back(static_cast<int>(i));
    const auto it = decls.requires_by_name.find(fns[i].qualified);
    if (it != decls.requires_by_name.end()) {
      for (LockClass c : it->second) {
        if (std::find(fns[i].entry_held.begin(), fns[i].entry_held.end(), c) ==
            fns[i].entry_held.end()) {
          fns[i].entry_held.push_back(c);
        }
      }
    }
  }
  for (Function& fn : fns) {
    AnalyzeBody(files[fn.file], fn);
  }
  // Transitive-acquire fixpoint: what lock classes can a call into fn end
  // up taking (excluding locks the caller is annotated as already holding).
  bool changed = true;
  while (changed) {
    changed = false;
    for (Function& fn : fns) {
      std::size_t before = fn.trans_acq.size();
      for (const AcquireSite& a : fn.acquires) {
        if (a.cls != LockClass::kUnknown) {
          fn.trans_acq.insert(a.cls);
        }
      }
      for (const CallSite& c : fn.calls) {
        for (int tgt : Resolve(c)) {
          fn.trans_acq.insert(fns[tgt].trans_acq.begin(),
                              fns[tgt].trans_acq.end());
        }
      }
      if (fn.trans_acq.size() != before) {
        changed = true;
      }
    }
  }
}

const std::vector<int>& Universe::Resolve(const CallSite& c) const {
  static const std::vector<int> kEmpty;
  if (!c.qualified.empty()) {
    const auto it = by_qualified.find(c.qualified);
    if (it != by_qualified.end()) {
      return it->second;
    }
  }
  const auto it = by_name.find(c.name);
  return it != by_name.end() ? it->second : kEmpty;
}

}  // namespace csmlint
