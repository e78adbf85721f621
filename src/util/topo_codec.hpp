// Binarized-octree topology codec.
//
// The forest's refinement structure is fully determined by one bit per
// node — "is this node refined?" — walked depth-first from each root in
// child-index order (the binarized-octree encoding of PAPERS.md). A
// 10k-block forest serializes to ~1.3 KB instead of the ~100 bytes/node an
// explicit struct costs, which is what makes shipping topology (and
// topology *deltas*) between simulated ranks cheap enough to do on every
// regrid (src/parsim/local_topology.hpp).
//
// Wire format (little-endian, byte-stable: the same forest always encodes
// to the same bytes):
//
//   full topology                       regrid delta
//   [magic "ABTOPO01"]                  [magic "ABTDLT01"]
//   [u8 dim][u8 max_level][u16 0]       [u8 dim][u8 0][u16 0]
//   [i32 root_blocks[D]]                [u32 record_count]
//   [u32 leaf_count][u32 bit_count]     [bit-packed records, zero-padded
//   [bitstream, zero-padded to a byte]   to a byte]
//   [u32 crc32 of everything above]     [u32 crc32 of everything above]
//
// The bitstream holds, per root position in row-major order, a presence
// bit (root masks may remove roots), then for each present node one
// "refined" bit, recursing into the 2^D children of refined nodes in
// child-index order. Delta records are (op:1, level:5, coord:20 x D) bit
// fields — the same 20-bit coordinate budget Forest's hash key uses.
//
// Decoding parses fully before returning: any truncation, flipped bit
// (CRC), depth overflow, count mismatch, nonzero padding, or trailing
// garbage is rejected with a diagnostic, mirroring the checkpoint v2
// loader's contract (tests/util/topo_codec_test.cpp holds the matrix).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/forest.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

namespace topo_detail {

inline constexpr char kTopoMagic[8] = {'A', 'B', 'T', 'O', 'P', 'O', '0', '1'};
inline constexpr char kDeltaMagic[8] = {'A', 'B', 'T', 'D', 'L', 'T', '0', '1'};
inline constexpr int kLevelBits = 5;   // kMaxLevelCap = 16 fits
inline constexpr int kCoordBits = 20;  // Forest::key packs 20 bits/coord

/// LSB-first bit appender over a byte vector.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  void put(std::uint32_t value, int nbits) {
    for (int i = 0; i < nbits; ++i) {
      if (bit_ == 0) out_.push_back(0);
      if ((value >> i) & 1u)
        out_.back() |= static_cast<std::uint8_t>(1u << bit_);
      bit_ = (bit_ + 1) & 7;
    }
    count_ += static_cast<std::uint32_t>(nbits);
  }
  std::uint32_t bit_count() const { return count_; }

 private:
  std::vector<std::uint8_t>& out_;
  int bit_ = 0;
  std::uint32_t count_ = 0;
};

/// LSB-first bit reader; throws on reads past the declared bit count.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::uint32_t bit_count)
      : data_(data), bits_(bit_count) {}
  std::uint32_t get(int nbits) {
    std::uint32_t v = 0;
    for (int i = 0; i < nbits; ++i) {
      AB_REQUIRE(pos_ < bits_,
                 "topo codec: bitstream exhausted at bit " +
                     std::to_string(pos_) + " of " + std::to_string(bits_));
      if ((data_[pos_ >> 3] >> (pos_ & 7)) & 1u) v |= 1u << i;
      ++pos_;
    }
    return v;
  }
  std::uint32_t consumed() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::uint32_t bits_;
  std::uint32_t pos_ = 0;
};

inline void append_magic(std::vector<std::uint8_t>& out, const char* magic) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(magic[i]));
}

inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

inline void append_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  append_u32(out, static_cast<std::uint32_t>(v));
}

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  void need(std::size_t n, const char* what) const {
    AB_REQUIRE(pos_ + n <= bytes_.size(),
               std::string("topo codec: truncated before ") + what +
                   " (offset " + std::to_string(pos_) + ", file size " +
                   std::to_string(bytes_.size()) + ")");
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint8_t u8(const char* what) {
    need(1, what);
    return bytes_[pos_++];
  }
  const std::uint8_t* raw(std::size_t n, const char* what) {
    need(n, what);
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::size_t pos() const { return pos_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

/// Shared trailer handling: CRC over [0, pos), then nothing else.
inline void check_magic(ByteReader& r, const char* magic, const char* kind) {
  const std::uint8_t* m = r.raw(8, "magic");
  AB_REQUIRE(std::memcmp(m, magic, 8) == 0,
             std::string("topo codec: bad ") + kind + " magic/version");
}

inline void check_trailer(ByteReader& r,
                          const std::vector<std::uint8_t>& bytes) {
  const std::size_t body = r.pos();
  const std::uint32_t want = r.u32("crc");
  const std::uint32_t got = crc32(bytes.data(), body);
  AB_REQUIRE(got == want, "topo codec: CRC mismatch (stored " +
                              std::to_string(want) + ", computed " +
                              std::to_string(got) + ")");
  AB_REQUIRE(r.pos() == bytes.size(),
             "topo codec: " + std::to_string(bytes.size() - r.pos()) +
                 " trailing byte(s) after CRC");
}

}  // namespace topo_detail

/// One leaf of a decoded topology: its level and block coordinates.
template <int D>
struct TopoRecord {
  int level = 0;
  IVec<D> coords{};
  friend bool operator==(const TopoRecord& a, const TopoRecord& b) {
    return a.level == b.level && a.coords == b.coords;
  }
};

/// A decoded forest topology: the leaf set in depth-first order plus the
/// grid shape needed to re-instantiate it.
template <int D>
struct TopoSnapshot {
  IVec<D> root_blocks{};
  int max_level = 0;
  std::vector<TopoRecord<D>> leaves;
};

/// Encode the forest's refinement topology as a binarized octree.
template <int D>
std::vector<std::uint8_t> encode_topology(const Forest<D>& forest) {
  using namespace topo_detail;
  std::vector<std::uint8_t> out;
  append_magic(out, kTopoMagic);
  out.push_back(static_cast<std::uint8_t>(D));
  out.push_back(static_cast<std::uint8_t>(forest.config().max_level));
  out.push_back(0);
  out.push_back(0);
  for (int d = 0; d < D; ++d) append_i32(out, forest.config().root_blocks[d]);
  append_u32(out, static_cast<std::uint32_t>(forest.num_leaves()));
  const std::size_t bit_count_at = out.size();
  append_u32(out, 0);  // bit_count, patched below

  std::vector<std::uint8_t> stream;
  BitWriter bits(stream);
  // DFS from `id`: one refined-bit per node, children in child-index order.
  auto walk = [&](auto&& self, int id) -> void {
    const bool refined = !forest.is_leaf(id);
    bits.put(refined ? 1u : 0u, 1);
    if (!refined) return;
    for (int c : forest.children(id)) self(self, c);
  };
  // Roots in row-major order (last dimension fastest), with a presence bit
  // each so root-masked forests round-trip.
  IVec<D> c{};
  const IVec<D> rb = forest.config().root_blocks;
  for (;;) {
    const int root = forest.find(0, c);
    bits.put(root >= 0 ? 1u : 0u, 1);
    if (root >= 0) walk(walk, root);
    int d = D - 1;
    while (d >= 0 && ++c[d] == rb[d]) c[d--] = 0;
    if (d < 0) break;
  }
  const std::uint32_t nbits = bits.bit_count();
  for (int i = 0; i < 4; ++i)
    out[bit_count_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((nbits >> (8 * i)) & 0xFFu);
  out.insert(out.end(), stream.begin(), stream.end());
  append_u32(out, crc32(out.data(), out.size()));
  return out;
}

/// Decode a binarized-octree topology. Parses fully (CRC, counts, depth
/// bounds, padding, trailing bytes) before returning; throws Error on any
/// corruption.
template <int D>
TopoSnapshot<D> decode_topology(const std::vector<std::uint8_t>& bytes) {
  using namespace topo_detail;
  ByteReader r(bytes);
  check_magic(r, kTopoMagic, "topology");
  const int dim = r.u8("dim");
  AB_REQUIRE(dim == D, "topo codec: dimension mismatch (stream " +
                           std::to_string(dim) + ", expected " +
                           std::to_string(D) + ")");
  TopoSnapshot<D> snap;
  snap.max_level = r.u8("max_level");
  AB_REQUIRE(snap.max_level <= Forest<D>::kMaxLevelCap,
             "topo codec: max_level " + std::to_string(snap.max_level) +
                 " exceeds the level cap");
  r.u8("reserved");
  r.u8("reserved");
  std::int64_t roots = 1;
  for (int d = 0; d < D; ++d) {
    snap.root_blocks[d] = static_cast<std::int32_t>(r.u32("root_blocks"));
    AB_REQUIRE(snap.root_blocks[d] >= 1 && snap.root_blocks[d] <= (1 << 20),
               "topo codec: root_blocks out of range");
    roots *= snap.root_blocks[d];
  }
  const std::uint32_t leaf_count = r.u32("leaf_count");
  const std::uint32_t bit_count = r.u32("bit_count");
  const std::size_t stream_bytes = (bit_count + 7) / 8;
  const std::uint8_t* stream = r.raw(stream_bytes, "bitstream");
  // Padding bits beyond bit_count must be zero — a flipped pad bit is
  // corruption even though no field reads it.
  if (bit_count % 8 != 0) {
    const std::uint8_t last = stream[stream_bytes - 1];
    AB_REQUIRE((last >> (bit_count % 8)) == 0,
               "topo codec: nonzero padding bits");
  }
  check_trailer(r, bytes);

  BitReader bits(stream, bit_count);
  auto walk = [&](auto&& self, int level, IVec<D> coords) -> void {
    if (bits.get(1) == 0) {
      snap.leaves.push_back({level, coords});
      return;
    }
    AB_REQUIRE(level < snap.max_level,
               "topo codec: refinement below max_level in bitstream");
    for (int k = 0; k < (1 << D); ++k) {
      IVec<D> cc = coords.shifted_left(1);
      for (int d = 0; d < D; ++d)
        if ((k >> d) & 1) ++cc[d];
      self(self, level + 1, cc);
    }
  };
  IVec<D> c{};
  for (;;) {
    if (bits.get(1) != 0) walk(walk, 0, c);
    int d = D - 1;
    while (d >= 0 && ++c[d] == snap.root_blocks[d]) c[d--] = 0;
    if (d < 0) break;
  }
  AB_REQUIRE(bits.consumed() == bit_count,
             "topo codec: bitstream has " +
                 std::to_string(bit_count - bits.consumed()) +
                 " unconsumed bit(s)");
  AB_REQUIRE(snap.leaves.size() == leaf_count,
             "topo codec: leaf count mismatch (header " +
                 std::to_string(leaf_count) + ", stream " +
                 std::to_string(snap.leaves.size()) + ")");
  return snap;
}

/// Re-instantiate a forest with the snapshot's topology. `cfg` supplies
/// everything the codec does not carry (domain bounds, periodicity, root
/// mask); its grid shape must match the snapshot's. This is the one
/// forest-from-leaves rebuild: the checkpoint loader calls it too.
template <int D>
Forest<D> forest_from_snapshot(typename Forest<D>::Config cfg,
                               const TopoSnapshot<D>& snap) {
  AB_REQUIRE(cfg.root_blocks == snap.root_blocks &&
                 cfg.max_level >= snap.max_level,
             "forest_from_snapshot: config grid shape mismatch");
  Forest<D> f(cfg);
  // Each leaf's ancestors are refined parent-before-child, whatever the
  // leaf order (DFS here, leaf order in a checkpoint). Refining a legal
  // forest's nodes cascades only into nodes that forest refines too.
  for (const TopoRecord<D>& rec : snap.leaves) {
    for (int l = 0; l < rec.level; ++l) {
      const int id = f.find(l, rec.coords.shifted_right(rec.level - l));
      AB_REQUIRE(id >= 0, "forest_from_snapshot: missing ancestor");
      if (f.is_leaf(id)) f.refine(id);
    }
  }
  return f;
}

// --- Regrid deltas ------------------------------------------------------

enum class TopoDeltaOp : std::uint8_t { Refine = 0, Coarsen = 1 };

/// One topology change: `coords`/`level` identify the parent block that was
/// split (Refine) or whose family was merged back into it (Coarsen).
template <int D>
struct TopoDeltaRecord {
  TopoDeltaOp op = TopoDeltaOp::Refine;
  int level = 0;
  IVec<D> coords{};
  friend bool operator==(const TopoDeltaRecord& a, const TopoDeltaRecord& b) {
    return a.op == b.op && a.level == b.level && a.coords == b.coords;
  }
};

/// Encode a regrid's topology changes (bit-packed records + CRC).
template <int D>
std::vector<std::uint8_t> encode_topo_delta(
    const std::vector<TopoDeltaRecord<D>>& records) {
  using namespace topo_detail;
  std::vector<std::uint8_t> out;
  append_magic(out, kDeltaMagic);
  out.push_back(static_cast<std::uint8_t>(D));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  append_u32(out, static_cast<std::uint32_t>(records.size()));
  std::vector<std::uint8_t> stream;
  BitWriter bits(stream);
  for (const TopoDeltaRecord<D>& rec : records) {
    AB_REQUIRE(rec.level >= 0 && rec.level < (1 << kLevelBits),
               "topo codec: delta level out of range");
    bits.put(static_cast<std::uint32_t>(rec.op), 1);
    bits.put(static_cast<std::uint32_t>(rec.level), kLevelBits);
    for (int d = 0; d < D; ++d) {
      AB_REQUIRE(rec.coords[d] >= 0 && rec.coords[d] < (1 << kCoordBits),
                 "topo codec: delta coordinate out of range");
      bits.put(static_cast<std::uint32_t>(rec.coords[d]), kCoordBits);
    }
  }
  out.insert(out.end(), stream.begin(), stream.end());
  append_u32(out, crc32(out.data(), out.size()));
  return out;
}

/// Decode a regrid delta; throws Error on any corruption.
template <int D>
std::vector<TopoDeltaRecord<D>> decode_topo_delta(
    const std::vector<std::uint8_t>& bytes) {
  using namespace topo_detail;
  ByteReader r(bytes);
  check_magic(r, kDeltaMagic, "delta");
  const int dim = r.u8("dim");
  AB_REQUIRE(dim == D, "topo codec: delta dimension mismatch (stream " +
                           std::to_string(dim) + ", expected " +
                           std::to_string(D) + ")");
  r.u8("reserved");
  r.u8("reserved");
  r.u8("reserved");
  const std::uint32_t count = r.u32("record_count");
  const int rec_bits = 1 + kLevelBits + D * kCoordBits;
  const std::uint64_t nbits =
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(rec_bits);
  AB_REQUIRE(nbits <= 0xFFFFFFFFull, "topo codec: delta record count overflow");
  const std::size_t stream_bytes = static_cast<std::size_t>((nbits + 7) / 8);
  const std::uint8_t* stream = r.raw(stream_bytes, "delta records");
  if (nbits % 8 != 0) {
    const std::uint8_t last = stream[stream_bytes - 1];
    AB_REQUIRE((last >> (nbits % 8)) == 0,
               "topo codec: nonzero padding bits");
  }
  check_trailer(r, bytes);
  BitReader bits(stream, static_cast<std::uint32_t>(nbits));
  std::vector<TopoDeltaRecord<D>> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TopoDeltaRecord<D> rec;
    rec.op = static_cast<TopoDeltaOp>(bits.get(1));
    rec.level = static_cast<int>(bits.get(kLevelBits));
    for (int d = 0; d < D; ++d)
      rec.coords[d] = static_cast<int>(bits.get(kCoordBits));
    records.push_back(rec);
  }
  return records;
}

// --- Deltas on a double-valued channel ----------------------------------
//
// A rank's delta crosses a MessageBoard channel, which carries doubles: one
// length double, then the encoded bytes packed eight per double (the last
// one zero-padded).

/// Encode `records` as a channel payload [byte length, bytes...].
template <int D>
std::vector<double> pack_topo_delta(
    const std::vector<TopoDeltaRecord<D>>& records) {
  const std::vector<std::uint8_t> enc = encode_topo_delta<D>(records);
  std::vector<double> payload(
      1 + (enc.size() + sizeof(double) - 1) / sizeof(double), 0.0);
  payload[0] = static_cast<double>(enc.size());
  std::memcpy(payload.data() + 1, enc.data(), enc.size());
  return payload;
}

/// Decode a channel payload of `n` doubles. The length double comes off
/// the wire, so before any byte is read it must be a finite integer whose
/// bytes fill exactly the n - 1 doubles after it; throws Error otherwise,
/// or on any corruption decode_topo_delta rejects.
template <int D>
std::vector<TopoDeltaRecord<D>> unpack_topo_delta(const double* payload,
                                                  std::size_t n) {
  AB_REQUIRE(n >= 1, "topo codec: delta payload without a length");
  const double len = payload[0];
  const std::size_t room = (n - 1) * sizeof(double);
  AB_REQUIRE(len >= 0.0 && len <= static_cast<double>(room) &&
                 len == std::floor(len) &&
                 (static_cast<std::size_t>(len) + sizeof(double) - 1) /
                         sizeof(double) ==
                     n - 1,
             "topo codec: delta length " + std::to_string(len) +
                 " does not fill the " + std::to_string(n - 1) +
                 " double(s) after it");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len));
  if (!bytes.empty()) std::memcpy(bytes.data(), payload + 1, bytes.size());
  return decode_topo_delta<D>(bytes);
}

}  // namespace ab
