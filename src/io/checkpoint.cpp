#include "io/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ab {

namespace {

constexpr std::uint64_t kMagicV1 = 0x41424b5054303100ull;  // "ABKPT01\0"
constexpr std::uint64_t kMagicV2 = 0x41424b5054303200ull;  // "ABKPT02\0"
constexpr std::uint32_t kFormatVersion = 2;
const char* const kSectionNames[3] = {"config", "topology", "data"};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

// ---------------------------------------------------------------------
// Byte-buffer primitives. All parsing happens on an in-memory image of
// the file, bounds-checked with byte-offset diagnostics, and the forest/
// store are only mutated after the entire image has been validated.

class ByteWriter {
 public:
  template <class T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  void put_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const char*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  const std::vector<char>& bytes() const { return bytes_; }

 private:
  std::vector<char> bytes_;
};

/// Bounds-checked cursor over a byte span. Every read that would run past
/// the end throws with the offending byte offset, so a truncated file is
/// reported as "needed N bytes at offset O" instead of handing back
/// whatever garbage happened to precede EOF.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size, std::size_t base_offset,
             const char* what)
      : data_(data), size_(size), base_(base_offset), what_(what) {}

  template <class T>
  T get() {
    require_available(sizeof(T));
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void get_raw(void* out, std::size_t n) {
    require_available(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  std::size_t remaining() const { return size_ - pos_; }
  /// Absolute byte offset within the file.
  std::size_t offset() const { return base_ + pos_; }

 private:
  void require_available(std::size_t n) {
    AB_REQUIRE(pos_ + n <= size_,
               std::string("checkpoint: truncated ") + what_ + ": needed " +
                   std::to_string(n) + " byte(s) at file offset " +
                   std::to_string(base_ + pos_) + ", only " +
                   std::to_string(size_ - pos_) + " available");
  }

  const char* data_;
  std::size_t size_;
  std::size_t base_;
  const char* what_;
  std::size_t pos_ = 0;
};

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  AB_REQUIRE(is.good(), "load_checkpoint: cannot open " + path);
  is.seekg(0, std::ios::end);
  const std::streamoff len = is.tellg();
  AB_REQUIRE(len >= 0, "load_checkpoint: cannot determine size of " + path);
  is.seekg(0, std::ios::beg);
  std::vector<char> bytes(static_cast<std::size_t>(len));
  if (!bytes.empty())
    is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  AB_REQUIRE(is.good() || bytes.empty(),
             "load_checkpoint: read failed on " + path);
  return bytes;
}

/// Write `bytes` to `path` atomically: assemble at a uniquely-named
/// sibling tmp file, flush, close, then rename over the destination. A
/// crash at any point leaves either the old checkpoint or a stray tmp —
/// never a half-written file under the real name. The tmp name embeds the
/// pid and a process-wide counter: concurrent savers (SPMD worker
/// processes auto-checkpointing the same path, or two threads) each write
/// their own tmp instead of interleaving into a shared path+".tmp", so
/// the rename always publishes one writer's complete bytes.
void write_file_atomic(const std::string& path,
                       const std::vector<char>& bytes) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    AB_REQUIRE(os.good(), "save_checkpoint: cannot open " + tmp);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    AB_REQUIRE(os.good(), "save_checkpoint: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    AB_REQUIRE(false, "save_checkpoint: cannot rename " + tmp + " over " +
                          path);
  }
}

// ---------------------------------------------------------------------
// Shared record representation: the fully parsed, not-yet-applied image.

template <int D>
struct LeafRec {
  std::int32_t level = 0;
  IVec<D> coords{};
  std::vector<double> data;
};

/// Validate a parsed config section against the destination forest/store.
/// Same acceptance rules (and messages) for both format versions.
template <int D>
void check_config(ByteReader& r, const Forest<D>& forest,
                  const BlockLayout<D>& lay, double* time,
                  std::int64_t* nleaves) {
  const auto& cfg = forest.config();
  AB_REQUIRE(r.get<std::int32_t>() == D, "load_checkpoint: dimension mismatch");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(r.get<std::int32_t>() == cfg.root_blocks[d],
               "load_checkpoint: root_blocks mismatch");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(r.get<double>() == cfg.domain_lo[d],
               "load_checkpoint: domain_lo mismatch");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(r.get<double>() == cfg.domain_hi[d],
               "load_checkpoint: domain_hi mismatch");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(r.get<std::int32_t>() == (cfg.periodic[d] ? 1 : 0),
               "load_checkpoint: periodicity mismatch");
  AB_REQUIRE(r.get<std::int32_t>() == cfg.max_level,
             "load_checkpoint: max_level mismatch");
  AB_REQUIRE(r.get<std::int32_t>() == cfg.max_level_diff,
             "load_checkpoint: max_level_diff mismatch");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(r.get<std::int32_t>() == lay.interior[d],
               "load_checkpoint: cells-per-block mismatch");
  AB_REQUIRE(r.get<std::int32_t>() == lay.ghost,
             "load_checkpoint: ghost width mismatch");
  AB_REQUIRE(r.get<std::int32_t>() == lay.nvar,
             "load_checkpoint: variable count mismatch");
  *time = r.get<double>();
  *nleaves = r.get<std::int64_t>();
  AB_REQUIRE(*nleaves > 0, "load_checkpoint: empty checkpoint");
  AB_REQUIRE(forest.num_leaves() ==
                 static_cast<int>(cfg.root_blocks.product()),
             "load_checkpoint: forest must be pristine (roots only)");
}

/// Apply fully validated records: rebuild the topology on the pristine
/// forest, then write leaf data keyed by (level, coords). This is the only
/// place the loader mutates its outputs.
template <int D>
void apply_records(Forest<D>& forest, BlockStore<D>& store,
                   std::vector<LeafRec<D>>& recs) {
  const BlockLayout<D>& lay = store.layout();
  // Refining in level order guarantees every parent exists when its
  // children are created, with no cascades (the saved forest satisfied the
  // constraint).
  std::stable_sort(
      recs.begin(), recs.end(),
      [](const LeafRec<D>& a, const LeafRec<D>& b) { return a.level < b.level; });
  for (const auto& r : recs) {
    for (int l = 0; l < r.level; ++l) {
      const int anc = forest.find(l, r.coords.shifted_right(r.level - l));
      AB_REQUIRE(anc >= 0, "load_checkpoint: inconsistent topology");
      if (forest.is_leaf(anc)) forest.refine(anc);
    }
  }
  AB_REQUIRE(forest.num_leaves() == static_cast<int>(recs.size()),
             "load_checkpoint: topology mismatch after rebuild");

  for (const auto& r : recs) {
    const int id = forest.find(r.level, r.coords);
    AB_REQUIRE(id >= 0 && forest.is_leaf(id),
               "load_checkpoint: saved block is not a leaf after rebuild");
    store.ensure(id);
    BlockView<D> v = store.view(id);
    std::size_t k = 0;
    for (int var = 0; var < lay.nvar; ++var) {
      for_each_cell<D>(lay.interior_box(),
                       [&](IVec<D> p) { v.at(var, p) = r.data[k++]; });
    }
  }
}

// ---------------------------------------------------------------------
// V2: sectioned, checksummed, versioned.

template <int D>
void build_config_section(ByteWriter& w, const Forest<D>& forest,
                          const BlockLayout<D>& lay, double time,
                          std::int64_t nleaves) {
  const auto& cfg = forest.config();
  w.put(static_cast<std::int32_t>(D));
  for (int d = 0; d < D; ++d)
    w.put(static_cast<std::int32_t>(cfg.root_blocks[d]));
  for (int d = 0; d < D; ++d) w.put(cfg.domain_lo[d]);
  for (int d = 0; d < D; ++d) w.put(cfg.domain_hi[d]);
  for (int d = 0; d < D; ++d)
    w.put(static_cast<std::int32_t>(cfg.periodic[d] ? 1 : 0));
  w.put(static_cast<std::int32_t>(cfg.max_level));
  w.put(static_cast<std::int32_t>(cfg.max_level_diff));
  for (int d = 0; d < D; ++d) w.put(static_cast<std::int32_t>(lay.interior[d]));
  w.put(static_cast<std::int32_t>(lay.ghost));
  w.put(static_cast<std::int32_t>(lay.nvar));
  w.put(time);
  w.put(nleaves);
}

struct SectionSpan {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t offset = 0;  ///< payload start within the file
};

/// Slice the file image into its three checksummed sections, verifying
/// lengths and CRCs. Pure read — throws on any structural violation.
inline std::array<SectionSpan, 3> split_v2_sections(
    const std::vector<char>& bytes) {
  std::array<SectionSpan, 3> sections{};
  std::size_t pos = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  for (int s = 0; s < 3; ++s) {
    const std::string name = kSectionNames[s];
    AB_REQUIRE(pos + sizeof(std::uint64_t) <= bytes.size(),
               "checkpoint: truncated before the '" + name +
                   "' section length at file offset " + std::to_string(pos));
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    pos += sizeof len;
    AB_REQUIRE(len <= bytes.size() - pos,
               "checkpoint: section '" + name + "' truncated: payload of " +
                   std::to_string(len) + " byte(s) at file offset " +
                   std::to_string(pos) + " exceeds the " +
                   std::to_string(bytes.size() - pos) +
                   " byte(s) remaining in the file");
    const char* payload = bytes.data() + pos;
    const std::size_t payload_off = pos;
    pos += static_cast<std::size_t>(len);
    AB_REQUIRE(pos + sizeof(std::uint32_t) <= bytes.size(),
               "checkpoint: section '" + name +
                   "' truncated: missing CRC at file offset " +
                   std::to_string(pos));
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + pos, sizeof stored);
    pos += sizeof stored;
    const std::uint32_t computed =
        crc32(payload, static_cast<std::size_t>(len));
    AB_REQUIRE(computed == stored,
               "checkpoint: CRC mismatch in section '" + name + "' (stored " +
                   hex32(stored) + ", computed " + hex32(computed) +
                   ") — the file is corrupt");
    sections[static_cast<std::size_t>(s)] = {payload,
                                             static_cast<std::size_t>(len),
                                             payload_off};
  }
  AB_REQUIRE(pos == bytes.size(),
             "checkpoint: " + std::to_string(bytes.size() - pos) +
                 " unexpected trailing byte(s) after the data section");
  return sections;
}

template <int D>
double load_v2(const std::vector<char>& bytes, Forest<D>& forest,
               BlockStore<D>& store) {
  const BlockLayout<D>& lay = store.layout();
  ByteReader head(bytes.data(), bytes.size(), 0, "header");
  head.get<std::uint64_t>();  // magic, already matched
  const auto version = head.get<std::uint32_t>();
  AB_REQUIRE(version == kFormatVersion,
             "checkpoint: format version skew: file declares version " +
                 std::to_string(version) + ", this reader supports version " +
                 std::to_string(kFormatVersion));
  const auto sections = split_v2_sections(bytes);

  ByteReader cfg_r(sections[0].data, sections[0].size, sections[0].offset,
                   "config section");
  double time = 0.0;
  std::int64_t n = 0;
  check_config<D>(cfg_r, forest, lay, &time, &n);
  AB_REQUIRE(cfg_r.remaining() == 0,
             "checkpoint: config section has " +
                 std::to_string(cfg_r.remaining()) + " trailing byte(s)");

  ByteReader topo_r(sections[1].data, sections[1].size, sections[1].offset,
                    "topology section");
  std::vector<LeafRec<D>> recs(static_cast<std::size_t>(n));
  for (auto& r : recs) {
    r.level = topo_r.get<std::int32_t>();
    AB_REQUIRE(r.level >= 0 && r.level <= forest.config().max_level,
               "checkpoint: leaf level " + std::to_string(r.level) +
                   " out of range [0, " +
                   std::to_string(forest.config().max_level) + "]");
    for (int d = 0; d < D; ++d) r.coords[d] = topo_r.get<std::int32_t>();
  }
  AB_REQUIRE(topo_r.remaining() == 0,
             "checkpoint: topology section has " +
                 std::to_string(topo_r.remaining()) + " trailing byte(s)");

  const std::size_t doubles_per_block =
      static_cast<std::size_t>(lay.interior_cells() * lay.nvar);
  const std::size_t want =
      static_cast<std::size_t>(n) * doubles_per_block * sizeof(double);
  AB_REQUIRE(sections[2].size == want,
             "checkpoint: data section holds " +
                 std::to_string(sections[2].size) + " byte(s), expected " +
                 std::to_string(want) + " for " + std::to_string(n) +
                 " block(s)");
  ByteReader data_r(sections[2].data, sections[2].size, sections[2].offset,
                    "data section");
  for (auto& r : recs) {
    r.data.resize(doubles_per_block);
    data_r.get_raw(r.data.data(), doubles_per_block * sizeof(double));
  }

  apply_records<D>(forest, store, recs);
  return time;
}

// ---------------------------------------------------------------------
// V1: legacy unsectioned layout (no checksums). Still readable; parsing
// happens on the in-memory image with position-bearing truncation errors,
// and records are applied only after the whole file has been consumed.

template <int D>
double load_v1(const std::vector<char>& bytes, Forest<D>& forest,
               BlockStore<D>& store) {
  const BlockLayout<D>& lay = store.layout();
  ByteReader r(bytes.data(), bytes.size(), 0, "v1 file");
  r.get<std::uint64_t>();  // magic, already matched
  double time = 0.0;
  std::int64_t n = 0;
  check_config<D>(r, forest, lay, &time, &n);

  const std::size_t doubles_per_block =
      static_cast<std::size_t>(lay.interior_cells() * lay.nvar);
  std::vector<LeafRec<D>> recs(static_cast<std::size_t>(n));
  for (auto& rec : recs) {
    rec.level = r.get<std::int32_t>();
    for (int d = 0; d < D; ++d) rec.coords[d] = r.get<std::int32_t>();
    rec.data.resize(doubles_per_block);
    r.get_raw(rec.data.data(), doubles_per_block * sizeof(double));
  }
  AB_REQUIRE(r.remaining() == 0,
             "checkpoint: " + std::to_string(r.remaining()) +
                 " unexpected trailing byte(s) at file offset " +
                 std::to_string(r.offset()));
  apply_records<D>(forest, store, recs);
  return time;
}

}  // namespace

// ---------------------------------------------------------------------
// Public API.

template <int D>
std::uint64_t save_checkpoint_view(
    const std::string& path, const Forest<D>& forest,
    const BlockLayout<D>& lay,
    const std::function<ConstBlockView<D>(int)>& view_of, double time) {
  const auto& leaves = forest.leaves();
  ByteWriter config, topo, data;
  build_config_section<D>(config, forest, lay, time,
                          static_cast<std::int64_t>(leaves.size()));
  std::vector<double> buf(static_cast<std::size_t>(lay.interior_cells()));
  for (int id : leaves) {
    topo.put(static_cast<std::int32_t>(forest.level(id)));
    for (int d = 0; d < D; ++d)
      topo.put(static_cast<std::int32_t>(forest.coords(id)[d]));
    ConstBlockView<D> v = view_of(id);
    for (int var = 0; var < lay.nvar; ++var) {
      std::size_t k = 0;
      for_each_cell<D>(lay.interior_box(),
                       [&](IVec<D> p) { buf[k++] = v.at(var, p); });
      data.put_raw(buf.data(), buf.size() * sizeof(double));
    }
  }

  ByteWriter file;
  file.put(kMagicV2);
  file.put(kFormatVersion);
  for (const ByteWriter* s : {&config, &topo, &data}) {
    file.put(static_cast<std::uint64_t>(s->bytes().size()));
    file.put_raw(s->bytes().data(), s->bytes().size());
    file.put(crc32(s->bytes().data(), s->bytes().size()));
  }
  write_file_atomic(path, file.bytes());
  return static_cast<std::uint64_t>(file.bytes().size());
}

template <int D>
std::uint64_t save_checkpoint(const std::string& path, const Forest<D>& forest,
                              const BlockStore<D>& store, double time) {
  for (int id : forest.leaves())
    AB_REQUIRE(store.has(id), "save_checkpoint: leaf without data");
  return save_checkpoint_view<D>(
      path, forest, store.layout(),
      [&store](int id) { return store.view(id); }, time);
}

template <int D>
double load_checkpoint(const std::string& path, Forest<D>& forest,
                       BlockStore<D>& store) {
  const std::vector<char> bytes = read_file(path);
  AB_REQUIRE(bytes.size() >= sizeof(std::uint64_t),
             "load_checkpoint: file is only " + std::to_string(bytes.size()) +
                 " byte(s) — too small to be a checkpoint");
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof magic);
  if (magic == kMagicV2) return load_v2<D>(bytes, forest, store);
  if (magic == kMagicV1) return load_v1<D>(bytes, forest, store);
  // Newer (or older-unknown) members of the "ABKPT" family are version
  // skew, not garbage — report them as such. The family tag occupies the
  // high five bytes of the (little-endian) magic word; the two below it
  // spell the revision.
  if ((magic >> 24) == (kMagicV2 >> 24)) {
    const char rev[3] = {static_cast<char>((magic >> 16) & 0xFF),
                         static_cast<char>((magic >> 8) & 0xFF), '\0'};
    AB_REQUIRE(false,
               "load_checkpoint: unsupported checkpoint format revision "
               "(magic ABKPT" +
                   std::string(rev) +
                   "); this reader understands versions 1 and 2");
  }
  AB_REQUIRE(false, "load_checkpoint: not a checkpoint file");
  return 0.0;  // unreachable
}

template std::uint64_t save_checkpoint<1>(const std::string&, const Forest<1>&,
                                          const BlockStore<1>&, double);
template std::uint64_t save_checkpoint<2>(const std::string&, const Forest<2>&,
                                          const BlockStore<2>&, double);
template std::uint64_t save_checkpoint<3>(const std::string&, const Forest<3>&,
                                          const BlockStore<3>&, double);
template std::uint64_t save_checkpoint_view<1>(
    const std::string&, const Forest<1>&, const BlockLayout<1>&,
    const std::function<ConstBlockView<1>(int)>&, double);
template std::uint64_t save_checkpoint_view<2>(
    const std::string&, const Forest<2>&, const BlockLayout<2>&,
    const std::function<ConstBlockView<2>(int)>&, double);
template std::uint64_t save_checkpoint_view<3>(
    const std::string&, const Forest<3>&, const BlockLayout<3>&,
    const std::function<ConstBlockView<3>(int)>&, double);
template double load_checkpoint<1>(const std::string&, Forest<1>&,
                                   BlockStore<1>&);
template double load_checkpoint<2>(const std::string&, Forest<2>&,
                                   BlockStore<2>&);
template double load_checkpoint<3>(const std::string&, Forest<3>&,
                                   BlockStore<3>&);

}  // namespace ab
