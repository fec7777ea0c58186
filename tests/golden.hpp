// Shared by the snapshot and differential tests: run a command, read a file,
// and compare stdout with a committed golden file or another run's,
// reporting the first line that differs rather than two whole transcripts.
#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace rtr::test {

struct CommandResult {
  int exit_code;
  std::string output;
};

/// Run `command` through the shell; its stdout and exit code.
inline CommandResult run_command(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe)) out += buf.data();
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

/// The contents of `path`; one that cannot be read fails the calling test.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path << " cannot be read";
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Fail unless `got` equals `want`, naming `what` and the first line off.
inline void expect_same_text(const std::string& what, const std::string& want,
                             const std::string& got) {
  if (got == want) return;
  std::istringstream got_lines(got), want_lines(want);
  std::string got_line, want_line;
  bool got_more = true, want_more = true;
  int line = 0;
  do {
    ++line;
    want_more = static_cast<bool>(std::getline(want_lines, want_line));
    got_more = static_cast<bool>(std::getline(got_lines, got_line));
  } while (want_more && got_more && got_line == want_line);
  ADD_FAILURE() << what << " differs at line " << line
                << "\n  want: " << (want_more ? want_line : "<end>")
                << "\n  got:  " << (got_more ? got_line : "<end>");
}

/// Fail the calling test unless `got` equals `dir`/`name`.txt.
inline void expect_matches_golden(const std::string& dir,
                                  const std::string& name,
                                  const std::string& got) {
  std::ifstream in(dir + "/" + name + ".txt");
  ASSERT_TRUE(in.good()) << "missing golden " << name;
  std::stringstream want;
  want << in.rdbuf();
  expect_same_text(name + ".txt", want.str(), got);
}

}  // namespace rtr::test
