#include "io/checkpoint.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/topo_codec.hpp"

namespace ab {

namespace {

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
// the file, bounds-checked with byte-offset diagnostics.

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
  /// Append `n` bytes for the caller to fill; the pointer is valid until
  /// the next append.
  char* extend(std::size_t n) {
    bytes_.resize(bytes_.size() + n);
    return bytes_.data() + bytes_.size() - n;
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

/// Validate a parsed config section against the reader's forest
/// configuration and block layout.
template <int D>
void check_config(ByteReader& r, const typename Forest<D>::Config& cfg,
                  const BlockLayout<D>& lay, double* time,
                  std::int64_t* nleaves) {
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
Checkpoint<D> load_v2(std::vector<char> bytes,
                      const typename Forest<D>::Config& cfg,
                      const BlockLayout<D>& lay) {
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
  check_config<D>(cfg_r, cfg, lay, &time, &n);
  AB_REQUIRE(cfg_r.remaining() == 0,
             "checkpoint: config section has " +
                 std::to_string(cfg_r.remaining()) + " trailing byte(s)");

  // The leaf count sizes everything below: check it against the topology
  // section before allocating for it.
  const std::size_t record_bytes = (1 + D) * sizeof(std::int32_t);
  AB_REQUIRE(sections[1].size % record_bytes == 0 &&
                 sections[1].size / record_bytes ==
                     static_cast<std::uint64_t>(n),
             "checkpoint: topology section holds " +
                 std::to_string(sections[1].size) + " byte(s), expected " +
                 std::to_string(n) + " leaf record(s) of " +
                 std::to_string(record_bytes) + " bytes");
  ByteReader topo_r(sections[1].data, sections[1].size, sections[1].offset,
                    "topology section");
  TopoSnapshot<D> snap{cfg.root_blocks, cfg.max_level, {}};
  snap.leaves.resize(static_cast<std::size_t>(n));
  for (TopoRecord<D>& r : snap.leaves) {
    r.level = topo_r.get<std::int32_t>();
    AB_REQUIRE(r.level >= 0 && r.level <= cfg.max_level,
               "checkpoint: leaf level " + std::to_string(r.level) +
                   " out of range [0, " + std::to_string(cfg.max_level) +
                   "]");
    for (int d = 0; d < D; ++d) r.coords[d] = topo_r.get<std::int32_t>();
  }

  const std::size_t block_bytes =
      static_cast<std::size_t>(interior_doubles(lay)) * sizeof(double);
  const std::size_t want = static_cast<std::size_t>(n) * block_bytes;
  AB_REQUIRE(sections[2].size == want,
             "checkpoint: data section holds " +
                 std::to_string(sections[2].size) + " byte(s), expected " +
                 std::to_string(want) + " for " + std::to_string(n) +
                 " block(s)");

  // The saved leaves are a legal forest's, in leaf order, so refining each
  // one's ancestors rebuilds exactly that forest; the checks below catch a
  // topology section that names anything else.
  Forest<D> forest = forest_from_snapshot<D>(cfg, snap);
  AB_REQUIRE(forest.num_leaves() == static_cast<int>(n),
             "load_checkpoint: topology mismatch after rebuild");
  std::vector<std::pair<int, std::size_t>> leaves;
  leaves.reserve(static_cast<std::size_t>(n));
  std::size_t at = sections[2].offset;
  for (const TopoRecord<D>& r : snap.leaves) {
    const int id = forest.find(r.level, r.coords);
    AB_REQUIRE(id >= 0 && forest.is_leaf(id),
               "load_checkpoint: saved block is not a leaf after rebuild");
    leaves.emplace_back(id, at);
    at += block_bytes;
  }
  return Checkpoint<D>{std::move(forest), time, std::move(bytes),
                       std::move(leaves)};
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
  const std::size_t block_bytes =
      static_cast<std::size_t>(interior_doubles(lay)) * sizeof(double);
  for (int id : leaves) {
    topo.put(static_cast<std::int32_t>(forest.level(id)));
    for (int d = 0; d < D; ++d)
      topo.put(static_cast<std::int32_t>(forest.coords(id)[d]));
    pack_interior<D>(view_of(id), data.extend(block_bytes));
  }

  ByteWriter file;
  file.put(kMagicV2);
  file.put(kFormatVersion);
  for (const ByteWriter* s : {&config, &topo, &data}) {
    file.put(static_cast<std::uint64_t>(s->bytes().size()));
    file.put_raw(s->bytes().data(), s->bytes().size());
    file.put(crc32(s->bytes().data(), s->bytes().size()));
  }
  write_file_atomic(path, file.bytes().data(), file.bytes().size());
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
void Checkpoint<D>::write_leaves(
    const std::function<BlockView<D>(int)>& view_of) const {
  for (const auto& [id, at] : leaves)
    unpack_interior<D>(bytes.data() + at, view_of(id));
}

template <int D>
Checkpoint<D> load_checkpoint(const std::string& path,
                              const typename Forest<D>::Config& cfg,
                              const BlockLayout<D>& layout) {
  std::vector<char> bytes = read_file(path);
  AB_REQUIRE(bytes.size() >= sizeof(std::uint64_t),
             "load_checkpoint: file is only " + std::to_string(bytes.size()) +
                 " byte(s) — too small to be a checkpoint");
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof magic);
  // Other members of the "ABKPT" family are version skew, not garbage —
  // report them as such. The family tag occupies the high five bytes of
  // the (little-endian) magic word; the two below it spell the revision.
  if (magic != kMagicV2 && (magic >> 24) == (kMagicV2 >> 24)) {
    const std::string rev = {static_cast<char>((magic >> 16) & 0xFF),
                             static_cast<char>((magic >> 8) & 0xFF)};
    AB_REQUIRE(false, "load_checkpoint: unsupported checkpoint format "
                      "revision (magic ABKPT" +
                          rev + ", " +
                          (magic < kMagicV2 ? "an older" : "a newer") +
                          " revision); this reader understands revision 02");
  }
  AB_REQUIRE(magic == kMagicV2, "load_checkpoint: not a checkpoint file");
  return load_v2<D>(std::move(bytes), cfg, layout);
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
template struct Checkpoint<1>;
template struct Checkpoint<2>;
template struct Checkpoint<3>;
template Checkpoint<1> load_checkpoint<1>(const std::string&,
                                          const Forest<1>::Config&,
                                          const BlockLayout<1>&);
template Checkpoint<2> load_checkpoint<2>(const std::string&,
                                          const Forest<2>::Config&,
                                          const BlockLayout<2>&);
template Checkpoint<3> load_checkpoint<3>(const std::string&,
                                          const Forest<3>::Config&,
                                          const BlockLayout<3>&);

}  // namespace ab
