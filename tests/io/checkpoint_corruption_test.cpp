// Corruption matrix for the v2 checkpoint format: every damaged file must
// be rejected with a precise diagnostic, and a solver restoring it must be
// left exactly as it was (the whole file is checked before the solver
// changes). Also covers the atomic-rename write path, including a write
// that fails part-way, and the rejection of v1 files.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "amr/solver.hpp"
#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "io/checkpoint.hpp"
#include "physics/euler.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "support/interior_digest.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

/// The running test's checkpoint file.
std::string ckpt_path() { return testing::temp_path("checkpoint.bin"); }

Forest<2>::Config forest_cfg() {
  Forest<2>::Config c;
  c.root_blocks = {2, 2};
  c.max_level = 3;
  c.periodic = {true, false};
  return c;
}

/// The layout of the solver below: 4x4 cells, 2 ghost layers, Euler's 4
/// variables.
BlockLayout<2> layout() { return BlockLayout<2>({4, 4}, 2, 4); }

/// A solver whose configuration matches the saved images.
AmrSolver<2, Euler<2>>::Config solver_cfg() {
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest = forest_cfg();
  cfg.cells_per_block = {4, 4};
  return cfg;
}

/// Save a non-trivial v2 checkpoint and return its byte image.
std::vector<char> saved_image() {
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay = layout();
  BlockStore<2> store(lay);
  f.refine(f.find(0, {0, 0}));
  f.refine(f.find(1, {1, 1}));
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<2> v = store.view(id);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int var = 0; var < 4; ++var)
        v.at(var, p) = id * 1000.0 + var * 100.0 + p[0] * 10.0 + p[1];
    });
  }
  save_checkpoint<2>(ckpt_path(), f, store, 1.5);
  std::ifstream is(ckpt_path(), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  std::remove(ckpt_path().c_str());
  return bytes;
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// v2 file geometry: [magic u64][version u32] then three sections, each
/// [len u64][payload][crc u32]. Recomputed from the image so the tests
/// stay honest if the writer changes.
struct Section {
  std::size_t len_off, payload_off, payload_len, crc_off;
};

std::vector<Section> section_layout(const std::vector<char>& bytes) {
  std::vector<Section> secs;
  std::size_t pos = 12;
  for (int s = 0; s < 3; ++s) {
    Section sec{};
    sec.len_off = pos;
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    sec.payload_off = pos + 8;
    sec.payload_len = static_cast<std::size_t>(len);
    sec.crc_off = sec.payload_off + sec.payload_len;
    pos = sec.crc_off + 4;
    secs.push_back(sec);
  }
  EXPECT_EQ(pos, bytes.size());
  return secs;
}

/// Restore `bytes` into a solver that has adapted and stepped, expect
/// rejection, and verify that the solver was not touched: same time, same
/// leaves and node ids, same interior bytes. Returns the error message for
/// content checks.
std::string expect_rejected(const std::vector<char>& bytes) {
  write_bytes(ckpt_path(), bytes);
  Euler<2> phys;
  AmrSolver<2, Euler<2>> solver(solver_cfg(), phys);
  solver.init([&phys](const RVec<2>& x, Euler<2>::State& u) {
    u = phys.from_primitive(1.0 + 0.5 * x[0] * x[1], {0.2, -0.1}, 1.0);
  });
  solver.adapt(
      [](const Forest<2>& f, const BlockStore<2>&, int id) {
        return f.coords(id)[0] == 0 ? AdaptFlag::Refine : AdaptFlag::Keep;
      });
  solver.step(0.01);
  const double t0 = solver.time();
  const int leaves0 = solver.forest().num_leaves();
  const std::uint64_t digest0 = testing::interior_digest(solver);
  std::string msg;
  try {
    solver.restore(ckpt_path());
    ADD_FAILURE() << "corrupt checkpoint was accepted";
  } catch (const Error& e) {
    msg = e.what();
  }
  EXPECT_EQ(solver.time(), t0) << "rejected restore changed the time";
  EXPECT_EQ(solver.forest().num_leaves(), leaves0)
      << "rejected restore changed the forest";
  EXPECT_EQ(testing::interior_digest(solver), digest0)
      << "rejected restore changed the solution";
  std::remove(ckpt_path().c_str());
  return msg;
}

TEST(CheckpointCorruption, TruncationAtEveryBoundary) {
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  std::vector<std::size_t> cuts = {0, 4, 8, 11};  // inside magic/version
  for (const Section& s : secs) {
    cuts.push_back(s.len_off);             // before the length field
    cuts.push_back(s.len_off + 4);         // inside the length field
    cuts.push_back(s.payload_off);         // length present, payload gone
    cuts.push_back(s.payload_off + s.payload_len / 2);  // mid-payload
    cuts.push_back(s.crc_off);             // payload present, CRC gone
    cuts.push_back(s.crc_off + 2);         // half a CRC
  }
  cuts.push_back(good.size() - 1);  // one byte short
  for (std::size_t cut : cuts) {
    SCOPED_TRACE(::testing::Message() << "truncated to " << cut << " of "
                                      << good.size() << " bytes");
    std::vector<char> bad(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::string msg = expect_rejected(bad);
    EXPECT_FALSE(msg.empty());
  }
}

TEST(CheckpointCorruption, OneBitFlipInEachSectionIsCaughtByCrc) {
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  const char* names[3] = {"config", "topology", "data"};
  for (int s = 0; s < 3; ++s) {
    for (std::size_t at : {secs[s].payload_off,
                           secs[s].payload_off + secs[s].payload_len / 2,
                           secs[s].crc_off - 1}) {
      SCOPED_TRACE(::testing::Message()
                   << "section " << names[s] << " flip at byte " << at);
      std::vector<char> bad = good;
      bad[at] = static_cast<char>(bad[at] ^ 0x10);
      const std::string msg = expect_rejected(bad);
      EXPECT_NE(msg.find("CRC mismatch in section '" + std::string(names[s]) +
                         "'"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(CheckpointCorruption, FlippedStoredCrcIsAMismatch) {
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  std::vector<char> bad = good;
  bad[secs[1].crc_off] = static_cast<char>(bad[secs[1].crc_off] ^ 0x01);
  const std::string msg = expect_rejected(bad);
  EXPECT_NE(msg.find("CRC mismatch in section 'topology'"),
            std::string::npos)
      << msg;
}

TEST(CheckpointCorruption, CorruptSectionLengthsAreRejected) {
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  // High bit set: an absurd length must be reported as a truncated
  // section, not attempted as an allocation.
  {
    std::vector<char> bad = good;
    bad[secs[0].len_off + 7] = static_cast<char>(0x7f);
    const std::string msg = expect_rejected(bad);
    EXPECT_NE(msg.find("section 'config' truncated"), std::string::npos)
        << msg;
  }
  // Off-by-one length: everything downstream shifts, so either a CRC or a
  // framing check must fire.
  {
    std::vector<char> bad = good;
    bad[secs[1].len_off] = static_cast<char>(bad[secs[1].len_off] ^ 0x01);
    EXPECT_FALSE(expect_rejected(bad).empty());
  }
}

TEST(CheckpointCorruption, WrongMagicAndVersionSkew) {
  const std::vector<char> good = saved_image();
  // The magic is a little-endian u64, so the file starts with the bytes
  // of "ABKPT02\0" reversed: offset 7 holds 'A' and offset 1 holds '2'.
  {
    std::vector<char> bad = good;
    bad[7] = 'X';  // break the family tag itself
    const std::string msg = expect_rejected(bad);
    EXPECT_NE(msg.find("not a checkpoint file"), std::string::npos) << msg;
  }
  {
    // A future family member ("ABKPT09") is version skew, not garbage.
    std::vector<char> bad = good;
    bad[1] = '9';
    const std::string msg = expect_rejected(bad);
    EXPECT_NE(msg.find("unsupported checkpoint format revision"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("ABKPT09"), std::string::npos) << msg;
  }
  {
    // Right magic, wrong declared version.
    std::vector<char> bad = good;
    bad[8] = 3;
    const std::string msg = expect_rejected(bad);
    EXPECT_NE(msg.find("format version skew"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declares version 3"), std::string::npos) << msg;
  }
}

TEST(CheckpointCorruption, SemanticDamageWithValidCrcStillRejectedCleanly) {
  // Patch a topology leaf level to 99 and FIX the section CRC: the frame
  // is now self-consistent, so only the semantic validation can catch it —
  // and it must still leave the outputs untouched (the parse-fully-then-
  // apply discipline, not the checksum, is what guarantees that).
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  std::vector<char> bad = good;
  const std::int32_t bogus = 99;
  std::memcpy(bad.data() + secs[1].payload_off, &bogus, sizeof bogus);
  const std::uint32_t crc =
      crc32(bad.data() + secs[1].payload_off, secs[1].payload_len);
  std::memcpy(bad.data() + secs[1].crc_off, &crc, sizeof crc);
  const std::string msg = expect_rejected(bad);
  EXPECT_NE(msg.find("leaf level 99 out of range"), std::string::npos) << msg;
}

TEST(CheckpointCorruption, AbsurdLeafCountIsRejectedBeforeAllocating) {
  // A config section claiming 2^50 leaves, with its CRC fixed: the count
  // must be checked against the topology section before anything is sized
  // by it, so the load fails with a diagnostic instead of std::bad_alloc.
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  std::vector<char> bad = good;
  const std::int64_t bogus = std::int64_t{1} << 50;
  const std::size_t count_off = secs[0].crc_off - sizeof bogus;
  std::memcpy(bad.data() + count_off, &bogus, sizeof bogus);
  const std::uint32_t crc =
      crc32(bad.data() + secs[0].payload_off, secs[0].payload_len);
  std::memcpy(bad.data() + secs[0].crc_off, &crc, sizeof crc);
  const std::string msg = expect_rejected(bad);
  EXPECT_NE(msg.find("topology section holds"), std::string::npos) << msg;
}

TEST(CheckpointCorruption, TruncationErrorsCarryByteOffsets) {
  const std::vector<char> good = saved_image();
  const auto secs = section_layout(good);
  std::vector<char> bad(good.begin(),
                        good.begin() + static_cast<std::ptrdiff_t>(
                                           secs[2].payload_off +
                                           secs[2].payload_len / 2));
  const std::string msg = expect_rejected(bad);
  EXPECT_NE(msg.find("file offset"), std::string::npos) << msg;
}

TEST(CheckpointCorruption, V1FileIsRejectedAsAnOlderRevision) {
  // The unchecksummed v1 layout ("ABKPT01") is no longer read: it is
  // version skew, reported as an older revision of the format.
  std::vector<char> bad = saved_image();
  bad[1] = '1';
  const std::string msg = expect_rejected(bad);
  EXPECT_NE(msg.find("ABKPT01"), std::string::npos) << msg;
  EXPECT_NE(msg.find("an older revision"), std::string::npos) << msg;
}

/// Tmp siblings of `path` (anything named <base>.tmp*) left in its
/// directory — the atomic writer must never leave one behind.
std::vector<std::string> stray_tmps(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = path.substr(0, slash);
  const std::string prefix = path.substr(slash + 1) + ".tmp";
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d))
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0)
      out.push_back(dir + "/" + e->d_name);
  ::closedir(d);
  return out;
}

TEST(CheckpointCorruption, SaveIsAtomicAndLeavesNoTempFile) {
  Forest<2> f(forest_cfg());
  BlockStore<2> store(layout());
  for (int id : f.leaves()) store.ensure(id);
  save_checkpoint<2>(ckpt_path(), f, store, 1.0);
  // Overwrite in place: the second save must replace the first atomically.
  save_checkpoint<2>(ckpt_path(), f, store, 2.0);
  struct stat st{};
  EXPECT_NE(stat(ckpt_path().c_str(), &st), -1);
  EXPECT_TRUE(stray_tmps(ckpt_path()).empty())
      << "temporary file left behind after save";
  EXPECT_DOUBLE_EQ(load_checkpoint<2>(ckpt_path(), forest_cfg(), layout()).time,
                   2.0);
  std::remove(ckpt_path().c_str());
}

TEST(CheckpointCorruption, FailedWriteLeavesNoTempFile) {
  // A full disk, modelled by a 1 KB file-size limit in a forked child (with
  // SIGXFSZ ignored, so the write fails with EFBIG instead of killing the
  // process): the save must throw and remove its partial tmp file.
  const std::string path = testing::temp_path("full.bin");
  Forest<2> f(forest_cfg());
  f.refine(f.find(0, {0, 0}));
  BlockStore<2> store(layout());
  for (int id : f.leaves()) store.ensure(id);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit lim{1024, 1024};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(3);
    int code = 1;  // the save did not throw
    try {
      save_checkpoint<2>(path, f, store, 1.0);
    } catch (const Error&) {
      code = stray_tmps(path).empty() ? 0 : 2;
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died (status " << status << ")";
  EXPECT_NE(WEXITSTATUS(status), 1) << "the save over the limit did not throw";
  EXPECT_NE(WEXITSTATUS(status), 2) << "the failed save left its tmp file";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  for (const std::string& t : stray_tmps(path)) std::remove(t.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointCorruption, ConcurrentSaversNeverTearTheFile) {
  // Several real processes auto-checkpoint the SAME path at once (the
  // SPMD wire workers do exactly this). Each writer assembles in its own
  // uniquely-suffixed tmp — pid + counter — so no two writers interleave
  // bytes, and every rename publishes one writer's complete file. A
  // reader racing the writers must only ever see a complete, CRC-valid
  // checkpoint from one of them.
  const std::string path = testing::temp_path("concurrent.bin");
  const int kWriters = 4;
  const int kSaves = 40;
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay = layout();
  auto make_store = [&](int writer) {
    BlockStore<2> store(lay);
    for (int id : f.leaves()) {
      store.ensure(id);
      BlockView<2> v = store.view(id);
      for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
        for (int var = 0; var < 4; ++var)
          v.at(var, p) = writer * 1e6 + id * 1000.0 + var * 100.0 + p[0];
      });
    }
    return store;
  };
  // Seed the path so the racing reader below never sees ENOENT.
  {
    BlockStore<2> s0 = make_store(0);
    save_checkpoint<2>(path, f, s0, 1.0);
  }
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      BlockStore<2> s = make_store(w);
      for (int i = 0; i < kSaves; ++i)
        save_checkpoint<2>(path, f, s, static_cast<double>(w + 1));
      _exit(0);
    }
    pids.push_back(pid);
  }
  // Read while the writers hammer the path: every load must be complete
  // and self-consistent (time identifies the writer; the data must be
  // that writer's bytes — a torn mix would trip the CRC first and this
  // check second).
  int reads = 0, torn = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      const Checkpoint<2> c = load_checkpoint<2>(path, forest_cfg(), lay);
      BlockStore<2> s(lay);
      for (int id : c.forest.leaves()) s.ensure(id);
      c.write_leaves([&s](int id) { return s.view(id); });
      const int w = static_cast<int>(c.time) - 1;
      if (w < 0 || w >= kWriters) ++torn;
      for (int id : c.forest.leaves()) {
        ConstBlockView<2> v = std::as_const(s).view(id);
        if (v.at(0, lay.interior_box().lo) != w * 1e6 + id * 1000.0)
          ++torn;
      }
      ++reads;
    } catch (const Error&) {
      ++torn;  // a racing reader must never see a damaged file
    }
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "writer died (status " << status << ")";
  }
  EXPECT_EQ(torn, 0) << "racing reader saw a torn checkpoint";
  EXPECT_EQ(reads, 200);
  // After the dust settles: the final file is one writer's complete save
  // and no uniquely-suffixed tmp survived.
  const double t = load_checkpoint<2>(path, forest_cfg(), lay).time;
  EXPECT_GE(t, 1.0);
  EXPECT_LE(t, static_cast<double>(kWriters));
  EXPECT_TRUE(stray_tmps(path).empty());
  std::remove(path.c_str());
}

TEST(CheckpointCorruption, StrayTmpFromACrashedWriterIsNeverRead) {
  // A writer that dies mid-assembly leaves a garbage tmp under its unique
  // suffix. The real path (the previous complete checkpoint) must stay
  // loadable, and the loader must never fall back to ANY tmp sibling.
  const std::string path = testing::temp_path("stray.bin");
  Forest<2> f(forest_cfg());
  BlockStore<2> store(layout());
  for (int id : f.leaves()) store.ensure(id);
  save_checkpoint<2>(path, f, store, 3.5);
  // Simulate the crash: half-written garbage under a dead writer's name.
  write_bytes(path + ".tmp.99999.0",
              std::vector<char>(37, static_cast<char>(0xAB)));
  EXPECT_DOUBLE_EQ(load_checkpoint<2>(path, forest_cfg(), layout()).time,
                   3.5);
  // With the real file gone, the stray tmp must NOT be resurrected.
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint<2>(path, forest_cfg(), layout()), Error);
  std::remove((path + ".tmp.99999.0").c_str());
}

TEST(CheckpointCorruption, UnwritableDestinationThrows) {
  Forest<2> f(forest_cfg());
  BlockStore<2> store(layout());
  for (int id : f.leaves()) store.ensure(id);
  EXPECT_THROW(
      save_checkpoint<2>("/nonexistent-dir-zz/ckpt.bin", f, store, 0.0),
      Error);
}

TEST(CheckpointCorruption, EmptyFileIsRejected) {
  const std::string msg = expect_rejected({});
  EXPECT_NE(msg.find("too small"), std::string::npos) << msg;
}

}  // namespace
}  // namespace ab
