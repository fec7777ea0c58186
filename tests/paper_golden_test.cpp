// The paper binaries' stdout pinned against goldens. Every table, ablation
// and extension binary under bench/ prints only simulated, deterministic
// numbers, so a change to any of them shows here as the first line that
// moved. After an intended simulated-output change, rerun the binary with
// `2>/dev/null`, overwrite its golden and say why in the change.
#include <gtest/gtest.h>

#include <string>

#include "golden.hpp"

namespace {

#ifndef RTRSIM_BENCH_DIR
#error "RTRSIM_BENCH_DIR must be defined by the build"
#endif

TEST(PaperGoldens, StdoutMatchesGoldens) {
  const char* const kBinaries[] = {
      "table01_resources_32",    "table02_transfers_32",
      "table03_patmatch_32",     "table04_hash_32",
      "table05_image_32",        "table06_resources_64",
      "table07_transfers_cpu_64", "table08_transfers_dma_64",
      "table09_patmatch_64",     "table10_hash_64",
      "table11_sha1_64",         "table12_image_64",
      "ablation_reconfig",       "ablation_fifo",
      "ablation_cache",          "extension_features",
      "figure_crossover",
  };
  for (const char* name : kBinaries) {
    SCOPED_TRACE(name);
    const auto r = rtr::test::run_command(std::string(RTRSIM_BENCH_DIR) + "/" +
                                          name + " 2>/dev/null");
    EXPECT_EQ(r.exit_code, 0);
    rtr::test::expect_matches_golden(RTRSIM_GOLDEN_DIR, name, r.output);
  }
}

}  // namespace
