// Tests of the rcj_tool command line itself: every command rejects a flag
// it does not accept with exit 2 and names the flag, before it loads a
// dataset or dials a server. A misspelt flag must never run the command
// with a default in its place (a `join --thread 4` used to run serially).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together.
};

/// Runs the built rcj_tool with `args` (shell words) and captures it. A
/// command that accepted its flags may run until stopped (serve, proxy),
/// so each run is capped at 20 s (exit 124).
Outcome RunTool(const std::string& args) {
  Outcome outcome;
#ifdef RCJ_TOOL_PATH
  std::FILE* pipe = popen(
      ("timeout 20 '" RCJ_TOOL_PATH "' " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    outcome.output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
#else
  (void)args;
#endif
  return outcome;
}

TEST(RcjToolTest, EveryCommandRejectsAMisspeltFlag) {
#ifndef RCJ_TOOL_PATH
  GTEST_SKIP() << "rcj_tool is not built (RINGJOIN_BUILD_TOOLS=OFF)";
#endif
  const struct {
    const char* args;
    const char* message;
  } cases[] = {
      {"join --q q.csv --p p.csv --thread 4",
       "rcj_tool join: unknown flag --thread"},
      {"batch --q q.csv --p p.csv --algos inj --repet 3",
       "rcj_tool batch: unknown flag --repet"},
      {"serve --q q.csv --p p.csv --shard 2",
       "rcj_tool serve: unknown flag --shard"},
      {"client --port 1 --limt 5", "rcj_tool client: unknown flag --limt"},
      {"proxy --backends 127.0.0.1:1 --replica 2",
       "rcj_tool proxy: unknown flag --replica"},
  };
  for (const auto& c : cases) {
    const Outcome outcome = RunTool(c.args);
    EXPECT_EQ(outcome.exit_code, 2) << c.args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(c.message), std::string::npos)
        << c.args << "\n" << outcome.output;
  }
}

TEST(RcjToolTest, FleetAcceptsServeFlagsButNotTypos) {
#ifndef RCJ_TOOL_PATH
  GTEST_SKIP() << "rcj_tool is not built (RINGJOIN_BUILD_TOOLS=OFF)";
#endif
  // A serve flag is a fleet flag (it passes through to every backend), so
  // the bad --shards value is the first thing fleet's backends would see;
  // fleet itself fails on the bad --backends value first.
  Outcome outcome = RunTool("fleet --q q.csv --p p.csv --shards 2 "
                            "--backends 0");
  EXPECT_EQ(outcome.exit_code, 2) << outcome.output;
  EXPECT_NE(outcome.output.find("fleet: invalid --backends '0'"),
            std::string::npos)
      << outcome.output;
  outcome = RunTool("fleet --q q.csv --p p.csv --shard 2");
  EXPECT_EQ(outcome.exit_code, 2) << outcome.output;
  EXPECT_NE(outcome.output.find("rcj_tool fleet: unknown flag --shard"),
            std::string::npos)
      << outcome.output;
}

}  // namespace
