// Tuning-cache serialization: round-trip stability, strict rejection of
// damaged files, host-key gating, and the solver's fresh-probe fallback.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "amr/solver.hpp"
#include "physics/euler.hpp"
#include "physics/lanes.hpp"
#include "tune/autotuner.hpp"
#include "tune/cache.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

tune::TuneCache sample_cache() {
  tune::TuneCache c;
  c.host_key = "hostA|cxx:g++|isa:avx2|d:3|nvar:8|g:2";
  tune::ProbeResult r;
  r.cand = {8, 0, 0};
  r.ns_per_cell = 13.371;
  r.blocks = 216;
  r.cells = 110592;
  r.reps = 7;
  c.table.push_back(r);
  r.cand = {12, 1, 0};
  r.ns_per_cell = 7.0 / 3.0;  // not exactly representable in few digits
  r.blocks = 64;
  r.cells = 110592;
  r.reps = 11;
  c.table.push_back(r);
  r.cand = {32, 0, 16};
  r.ns_per_cell = 9.25e-1;
  r.blocks = 1;
  r.cells = 32768;
  r.reps = 3;
  c.table.push_back(r);
  return c;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TuneCache, JsonRoundTripIsByteStable) {
  const tune::TuneCache c = sample_cache();
  const std::string bytes = tune::to_json(c);
  const std::optional<tune::TuneCache> back = tune::parse_json(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->format, 1);
  EXPECT_EQ(back->host_key, c.host_key);
  ASSERT_EQ(back->table.size(), c.table.size());
  for (std::size_t i = 0; i < c.table.size(); ++i) {
    EXPECT_EQ(back->table[i].cand, c.table[i].cand);
    EXPECT_EQ(back->table[i].ns_per_cell, c.table[i].ns_per_cell);
    EXPECT_EQ(back->table[i].blocks, c.table[i].blocks);
    EXPECT_EQ(back->table[i].cells, c.table[i].cells);
    EXPECT_EQ(back->table[i].reps, c.table[i].reps);
  }
  // Same cache => same bytes: re-serializing the parse reproduces the file
  // exactly, which is what makes cached selection fully deterministic.
  EXPECT_EQ(tune::to_json(*back), bytes);
}

TEST(TuneCache, SaveThenLoadWithMatchingKey) {
  const std::string path = testing::temp_path("cache.json");
  const tune::TuneCache c = sample_cache();
  ASSERT_TRUE(tune::save_cache(path, c));
  const std::optional<tune::TuneCache> back =
      tune::load_cache(path, c.host_key);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->table.size(), 3u);
  EXPECT_EQ(back->table[1].ns_per_cell, 7.0 / 3.0);
  // Empty expected key accepts any recorded key.
  EXPECT_TRUE(tune::load_cache(path, "").has_value());
  std::remove(path.c_str());
}

TEST(TuneCache, HostKeyMismatchRejected) {
  const std::string path = testing::temp_path("cache.json");
  ASSERT_TRUE(tune::save_cache(path, sample_cache()));
  EXPECT_FALSE(tune::load_cache(path, "other-host|different").has_value());
  std::remove(path.c_str());
}

TEST(TuneCache, MissingFileIsNullopt) {
  EXPECT_FALSE(
      tune::load_cache(testing::temp_path("no_such_cache.json"), "")
          .has_value());
}

TEST(TuneCache, CorruptionAndTruncationRejected) {
  const std::string good = tune::to_json(sample_cache());
  // Every strict-parser failure mode: truncation at any interesting point,
  // garbage, unknown members, wrong format version, trailing junk.
  EXPECT_FALSE(tune::parse_json("").has_value());
  EXPECT_FALSE(tune::parse_json("not json at all").has_value());
  EXPECT_FALSE(tune::parse_json(good.substr(0, good.size() / 2)).has_value());
  EXPECT_FALSE(tune::parse_json(good.substr(0, good.size() - 1)).has_value());
  EXPECT_FALSE(tune::parse_json(good + "x").has_value());
  EXPECT_FALSE(tune::parse_json("{\"format\":2,\"host_key\":\"h\","
                                "\"table\":[]}")
                   .has_value());
  EXPECT_FALSE(tune::parse_json("{\"format\":1,\"surprise\":3,"
                                "\"host_key\":\"h\",\"table\":[]}")
                   .has_value());
  // Nonsense rows are rejected even when syntactically valid.
  EXPECT_FALSE(tune::parse_json("{\"format\":1,\"host_key\":\"h\","
                                "\"table\":[{\"m\":0,\"pad0\":0,"
                                "\"sub_block\":0,\"ns_per_cell\":1.0,"
                                "\"blocks\":1,\"cells\":1,\"reps\":1}]}")
                   .has_value());
  EXPECT_FALSE(tune::parse_json("{\"format\":1,\"host_key\":\"h\","
                                "\"table\":[{\"m\":8,\"pad0\":0,"
                                "\"sub_block\":0,\"ns_per_cell\":-2.0,"
                                "\"blocks\":1,\"cells\":1,\"reps\":1}]}")
                   .has_value());
}

TEST(TuneCache, SolverFallsBackToFreshProbeOnCorruptCache) {
  const std::string path = testing::temp_path("cache.json");
  write_file(path, "{\"format\":1,\"host_key\":\"trunc");
  typename AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {4, 4};
  cfg.forest.periodic = {true, true};
  cfg.cells_per_block = {8, 8};
  cfg.autotune = true;
  cfg.tune_cache = path;
  cfg.tune_budget.min_seconds = 0.0;
  cfg.tune_budget.repetitions = 1;
  cfg.tune_budget.budget_edge = 32;
  Euler<2> phys;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  EXPECT_TRUE(solver.tune_decision().tuned);
  EXPECT_FALSE(solver.tune_decision().from_cache);
  // The corrupt file was replaced by a valid freshly probed table.
  EXPECT_TRUE(
      tune::load_cache(path, solver.tune_decision().host_key).has_value());
  std::remove(path.c_str());
}

TEST(TuneCache, SolverReprobesOnForeignHostKey) {
  const std::string path = testing::temp_path("cache.json");
  tune::TuneCache foreign = sample_cache();
  foreign.host_key = "some-other-machine|cxx:x|isa:y|d:2|nvar:4|g:2";
  ASSERT_TRUE(tune::save_cache(path, foreign));
  typename AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {4, 4};
  cfg.forest.periodic = {true, true};
  cfg.cells_per_block = {8, 8};
  cfg.autotune = true;
  cfg.tune_cache = path;
  cfg.tune_budget.min_seconds = 0.0;
  cfg.tune_budget.repetitions = 1;
  cfg.tune_budget.budget_edge = 32;
  Euler<2> phys;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  EXPECT_FALSE(solver.tune_decision().from_cache);
  EXPECT_TRUE(solver.tune_decision().tuned);
  // The cache now carries this host's key, not the foreign one.
  const std::optional<tune::TuneCache> now = tune::load_cache(path, "");
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(now->host_key, solver.tune_decision().host_key);
  std::remove(path.c_str());
}

TEST(TuneCache, FailedSaveReturnsFalseAndLeavesNoTempFile) {
  // A full disk, modelled by a 16-byte file-size limit in a forked child
  // (with SIGXFSZ ignored, so the write fails with EFBIG instead of killing
  // the process): the save reports failure without throwing and removes
  // its partial tmp file.
  const std::string path = testing::temp_path("tune.json");
  const tune::TuneCache c = sample_cache();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit lim{16, 16};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(3);
    int code = 0;
    try {
      if (tune::save_cache(path, c)) code = 1;
    } catch (...) {
      code = 2;
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died (status " << status << ")";
  EXPECT_NE(WEXITSTATUS(status), 1) << "the save over the limit succeeded";
  EXPECT_NE(WEXITSTATUS(status), 2) << "a failed save must not throw";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::vector<std::string> left = testing::stray_tmps(path);
  EXPECT_TRUE(left.empty()) << "the failed save left " << left.front();
  for (const std::string& t : left) std::remove(t.c_str());
  std::remove(path.c_str());
}

TEST(TuneCache, HostFingerprintEncodesProblemShape) {
  const std::string a = tune::host_fingerprint(3, 8, 2);
  EXPECT_NE(a.find("|d:3"), std::string::npos);
  EXPECT_NE(a.find("|nvar:8"), std::string::npos);
  EXPECT_NE(a.find("|g:2"), std::string::npos);
  EXPECT_NE(a, tune::host_fingerprint(2, 8, 2));
  EXPECT_NE(a, tune::host_fingerprint(3, 4, 2));
  EXPECT_EQ(a, tune::host_fingerprint(3, 8, 2));  // stable within a build
}

// A layout probed on one kernel ISA must not be reused by another, so the
// key names the ISA the kernel dispatches to at run time: on a CPU with
// AVX2 a baseline build's key says avx2, not the compile-time sse2.
TEST(TuneCache, HostFingerprintNamesDispatchedKernelIsa) {
  const std::string a = tune::host_fingerprint(2, 8, 2);
  const std::string isa = lanes::max_width() == 4 ? "avx2" : lanes::isa();
  EXPECT_NE(a.find("|isa:" + isa + "|"), std::string::npos) << a;
}

}  // namespace
}  // namespace ab
