// Every test and benchmark the docs cite by name exists. A citation is a
// backticked `Suite.Name` or `Suite.*` (a suite prefix), or any `BM_*` name
// inside backticks, in docs/*.md, README.md, DESIGN.md or the verify skill.
// Test names resolve against every test binary's --gtest_list_tests, with
// value- and type-parameter suffixes dropped; benchmark names against
// microbench's --benchmark_list_tests and the keys of BENCH_microbench.json.
// So a test or benchmark cannot be deleted or renamed while a doc still
// cites it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "golden.hpp"

namespace {

#if !defined(RTRSIM_SOURCE_DIR) || !defined(RTRSIM_TEST_DIR) || \
    !defined(RTRSIM_TEST_NAMES) || !defined(RTRSIM_MICROBENCH_PATH)
#error "RTRSIM_SOURCE_DIR, RTRSIM_TEST_DIR, RTRSIM_TEST_NAMES and RTRSIM_MICROBENCH_PATH must be defined by the build"
#endif

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// An identifier that starts with a capital letter, as gtest names are.
bool is_capitalized(std::string_view s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0])) != 0 &&
         std::all_of(s.begin(), s.end(), is_word);
}

/// Every `BM_<word>` in `text`.
std::vector<std::string> bench_names(const std::string& text) {
  std::vector<std::string> names;
  for (std::size_t at = text.find("BM_"); at != std::string::npos;
       at = text.find("BM_", at + 3)) {
    std::size_t end = at + 3;
    while (end < text.size() && is_word(text[end])) ++end;
    if (end > at + 3) names.push_back(text.substr(at, end - at));
  }
  return names;
}

/// A listed test without its parameter index (`Case/0`).
std::string bare_test(const std::string& name) {
  return name.substr(0, name.find('/'));
}

/// A listed suite without its instantiation prefix (`Grid/Suite`) or type
/// index (`Suite/0`).
std::string bare_suite(std::string suite) {
  const std::size_t slash = suite.rfind('/');
  if (slash != std::string::npos &&
      suite.find_first_not_of("0123456789", slash + 1) == std::string::npos) {
    suite.resize(slash);
  }
  return suite.substr(suite.rfind('/') + 1);  // npos + 1 == 0: no prefix
}

/// Every `Suite.Name` the test binaries list.
std::set<std::string> listed_tests() {
  std::set<std::string> tests;
  std::istringstream names(RTRSIM_TEST_NAMES);
  std::string binary;
  while (std::getline(names, binary, ',')) {
    const auto r = rtr::test::run_command(std::string(RTRSIM_TEST_DIR) + "/" +
                                          binary + " --gtest_list_tests");
    EXPECT_EQ(r.exit_code, 0) << binary;
    std::istringstream lines(r.output);
    std::string line, suite;
    while (std::getline(lines, line)) {
      std::istringstream words(line);
      std::string word;
      if (!(words >> word)) continue;
      if (line[0] != ' ') {  // "Grid/Suite." or "Suite/0.  # TypeParam = ..."
        suite = bare_suite(word.substr(0, word.size() - 1));
      } else {  // "  Name" or "  Name/0  # GetParam() = ..."
        tests.insert(suite + "." + bare_test(word));
      }
    }
  }
  return tests;
}

/// Every benchmark microbench registers, plus BENCH_microbench.json's keys.
std::set<std::string> listed_benchmarks() {
  const auto r = rtr::test::run_command(std::string(RTRSIM_MICROBENCH_PATH) +
                                        " --benchmark_list_tests");
  EXPECT_EQ(r.exit_code, 0);
  std::set<std::string> benches;
  for (const std::string& text :
       {r.output,
        read_file(fs::path(RTRSIM_SOURCE_DIR) / "BENCH_microbench.json")}) {
    for (const std::string& name : bench_names(text)) benches.insert(name);
  }
  return benches;
}

/// The backticked spans of a markdown file, outside fenced code blocks.
std::vector<std::string> code_spans(const std::string& markdown) {
  std::istringstream lines(markdown);
  std::string line, prose;
  bool fenced = false;
  while (std::getline(lines, line)) {
    if (line.rfind("```", 0) == 0) {
      fenced = !fenced;
    } else if (!fenced) {
      prose += line + "\n";
    }
  }
  std::vector<std::string> spans;
  for (std::size_t open = prose.find('`'); open != std::string::npos;) {
    const std::size_t close = prose.find('`', open + 1);
    if (close == std::string::npos) break;
    spans.push_back(prose.substr(open + 1, close - open - 1));
    open = prose.find('`', close + 1);
  }
  return spans;
}

TEST(DocCitations, EveryCitedTestAndBenchmarkExists) {
  const fs::path root = RTRSIM_SOURCE_DIR;
  std::vector<fs::path> docs = {root / "README.md", root / "DESIGN.md",
                                root / ".claude/skills/verify/SKILL.md"};
  for (const auto& entry : fs::directory_iterator(root / "docs")) {
    if (entry.path().extension() == ".md") docs.push_back(entry.path());
  }
  const std::set<std::string> tests = listed_tests();
  std::set<std::string> suites;
  for (const std::string& t : tests) suites.insert(t.substr(0, t.find('.')));
  const std::set<std::string> benches = listed_benchmarks();

  int cited_tests = 0;
  int cited_benches = 0;
  for (const fs::path& doc : docs) {
    SCOPED_TRACE(doc.string());
    ASSERT_TRUE(fs::exists(doc));
    for (const std::string& span : code_spans(read_file(doc))) {
      const std::size_t dot = span.find('.');
      const std::string suite = span.substr(0, dot);
      const std::string name =
          dot == std::string::npos ? "" : span.substr(dot + 1);
      if (is_capitalized(suite) && (name == "*" || is_capitalized(name))) {
        ++cited_tests;
        const bool found =
            name == "*" ? suites.count(suite) > 0 : tests.count(span) > 0;
        EXPECT_TRUE(found) << "cites missing test `" << span << "`";
      }
      for (const std::string& bench : bench_names(span)) {
        ++cited_benches;
        EXPECT_TRUE(benches.count(bench) > 0)
            << "cites missing benchmark `" << bench << "`";
      }
    }
  }
  // A parser that finds nothing would pass vacuously.
  EXPECT_GT(cited_tests, 0);
  EXPECT_GT(cited_benches, 0);
}

}  // namespace
