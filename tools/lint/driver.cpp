#include "lint/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "lint/model.hpp"
#include "lint/rules.hpp"

namespace csmlint {
namespace {

namespace fs = std::filesystem;

bool LintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

bool InFixtureDir(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "lint_fixtures") {
      return true;
    }
  }
  return false;
}

std::vector<fs::path> CollectFiles(const std::vector<std::string>& roots) {
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (fs::is_regular_file(p)) {
      files.push_back(p);
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(p)) {
      if (entry.is_regular_file() && LintableExtension(entry.path()) &&
          !InFixtureDir(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void RunAllRules(Universe& u, std::vector<Finding>* findings) {
  u.BuildCallGraph();
  for (std::size_t fi = 0; fi < u.files.size(); ++fi) {
    RunFileLocalRules(u, static_cast<int>(fi), findings);
  }
  RunInterprocRules(u, findings);
  RunStaleWaiverRule(u, findings);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool WriteSarif(const std::string& path, const std::vector<Finding>& findings) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::vector<std::string> rules;
  for (const Finding& f : findings) {
    if (std::find(rules.begin(), rules.end(), f.rule) == rules.end()) {
      rules.push_back(f.rule);
    }
  }
  std::sort(rules.begin(), rules.end());
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"csm_lint\",\n"
      << "          \"informationUri\": \"docs/linting.md\",\n"
      << "          \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << (i ? ", " : "") << "{\"id\": \"" << JsonEscape(rules[i]) << "\"}";
  }
  out << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(f.text)
        << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << JsonEscape(f.file)
        << "\"}, \"region\": {\"startLine\": " << f.line << "}}}]\n"
        << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.good();
}

}  // namespace

int RunTree(const std::vector<std::string>& roots,
            const std::string& sarif_path) {
  Universe u;
  for (const fs::path& path : CollectFiles(roots)) {
    FileUnit f;
    if (!LoadFileUnit(path, path.string(), &f)) {
      std::fprintf(stderr, "csm_lint: cannot read %s\n", path.string().c_str());
      return 2;
    }
    f.interproc =
        path.generic_string().find("src/cashmere") != std::string::npos;
    u.files.push_back(std::move(f));
  }
  std::vector<Finding> findings;
  RunAllRules(u, &findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) {
                       return a.file < b.file;
                     }
                     return a.line < b.line;
                   });
  for (const Finding& fd : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", fd.file.c_str(), fd.line,
                 fd.rule.c_str(), fd.text.c_str());
  }
  std::fprintf(stderr, "csm_lint: %zu file(s), %zu finding(s)\n",
               u.files.size(), findings.size());
  if (!sarif_path.empty() && !WriteSarif(sarif_path, findings)) {
    std::fprintf(stderr, "csm_lint: cannot write %s\n", sarif_path.c_str());
    return 2;
  }
  return findings.empty() ? 0 : 1;
}

namespace {

// Checks one fixture universe (a single file or a cross-file group):
// every file's found-rule multiset must equal its declared expectations.
int CheckUniverse(Universe& u, int* checked) {
  std::vector<Finding> findings;
  RunAllRules(u, &findings);
  std::map<std::string, std::map<std::string, int>> found;
  for (const Finding& fd : findings) {
    ++found[fd.file][fd.rule];
  }
  int failures = 0;
  for (const FileUnit& f : u.files) {
    ++*checked;
    if (f.expects.empty() && !f.expects_none) {
      std::fprintf(stderr, "csm_lint: fixture %s declares no csm-lint-expect\n",
                   f.path.c_str());
      ++failures;
      continue;
    }
    std::map<std::string, int> expected;
    for (const std::string& rule : f.expects) {
      ++expected[rule];
    }
    const auto it = found.find(f.path);
    const std::map<std::string, int> got =
        it != found.end() ? it->second : std::map<std::string, int>{};
    if (expected == got) {
      int n = 0;
      for (const auto& [rule, count] : got) {
        n += count;
      }
      std::fprintf(stderr, "csm_lint: fixture %s OK (%d finding(s))\n",
                   f.path.c_str(), n);
      continue;
    }
    ++failures;
    std::fprintf(stderr, "csm_lint: fixture %s MISMATCH\n", f.path.c_str());
    for (const auto& [rule, n] : expected) {
      std::fprintf(stderr, "  expected %dx %s\n", n, rule.c_str());
    }
    for (const Finding& fd : findings) {
      if (fd.file == f.path) {
        std::fprintf(stderr, "  found %s:%d [%s] %s\n", fd.file.c_str(),
                     fd.line, fd.rule.c_str(), fd.text.c_str());
      }
    }
  }
  return failures;
}

}  // namespace

int RunFixtures(const std::string& dir) {
  std::vector<fs::path> single;
  std::vector<fs::path> groups;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && LintableExtension(entry.path())) {
      single.push_back(entry.path());
    } else if (entry.is_directory()) {
      groups.push_back(entry.path());
    }
  }
  std::sort(single.begin(), single.end());
  std::sort(groups.begin(), groups.end());
  int failures = 0;
  int checked = 0;
  auto load = [](const fs::path& p, Universe* u) {
    FileUnit f;
    if (!LoadFileUnit(p, p.string(), &f)) {
      std::fprintf(stderr, "csm_lint: cannot read %s\n", p.string().c_str());
      return false;
    }
    f.interproc = true;  // every fixture joins its universe's call graph
    u->files.push_back(std::move(f));
    return true;
  };
  for (const fs::path& p : single) {
    Universe u;
    if (!load(p, &u)) {
      return 2;
    }
    failures += CheckUniverse(u, &checked);
  }
  for (const fs::path& g : groups) {
    Universe u;
    std::vector<fs::path> members;
    for (const auto& entry : fs::recursive_directory_iterator(g)) {
      if (entry.is_regular_file() && LintableExtension(entry.path())) {
        members.push_back(entry.path());
      }
    }
    std::sort(members.begin(), members.end());
    for (const fs::path& p : members) {
      if (!load(p, &u)) {
        return 2;
      }
    }
    failures += CheckUniverse(u, &checked);
  }
  if (checked == 0) {
    std::fprintf(stderr, "csm_lint: no fixtures found in %s\n", dir.c_str());
    return 1;
  }
  std::fprintf(stderr, "csm_lint: %d fixture(s), %d mismatch(es)\n", checked,
               failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace csmlint
