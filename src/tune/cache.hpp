// Persistent tuning cache: the autotuner's probe table, written as one JSON
// object keyed by a host fingerprint (hostname + compiler + ISA + problem
// shape) so a recorded table is only reused on the machine/build/physics
// combination that produced it.
//
// The file is written atomically (util/atomic_file.hpp: a tmp file of its
// own per writer, renamed over the path — the checkpoint discipline) and
// doubles are serialized with the shortest round-tripping precision, so
// saving a loaded cache reproduces the file byte for byte: same cache =>
// same bytes => same selection, which is what makes autotuned runs
// reproducible.
//
// load_cache is strict: any parse error, truncation, unknown format, or
// host-key mismatch returns nullopt and the caller falls back to a fresh
// probe (mirroring the corrupted-checkpoint contract).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tune/probe.hpp"

namespace ab::tune {

struct TuneCache {
  int format = 1;
  std::string host_key;
  std::vector<ProbeResult> table;
};

/// Fingerprint of everything the probe numbers depend on: hostname,
/// compiler version, the widest SIMD ISA the library was built for, and the
/// problem shape (dimension, nvar, ghost width). Physics enters through
/// nvar plus the caller's tag (the physics type name is not reflectable;
/// solvers pass Phys::NVAR and D which distinguish every shipped physics).
std::string host_fingerprint(int dim, int nvar, int ghost);

/// Serialize `cache` to one JSON line (no trailing newline). Deterministic
/// for identical inputs.
std::string to_json(const TuneCache& cache);

/// Strict parse of to_json's format. nullopt on any deviation.
std::optional<TuneCache> parse_json(const std::string& text);

/// Atomically write `cache` to `path` (write_file_atomic). Returns false if
/// the file could not be written, leaving no tmp file behind (cache
/// failures are never fatal: the next run simply probes again).
bool save_cache(const std::string& path, const TuneCache& cache);

/// Load and validate a cache. nullopt when the file is missing, malformed,
/// truncated, from an unknown format version, or recorded under a
/// different host key (pass the expected key; empty accepts any).
std::optional<TuneCache> load_cache(const std::string& path,
                                    const std::string& expect_host_key);

}  // namespace ab::tune
