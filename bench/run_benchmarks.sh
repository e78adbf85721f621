#!/usr/bin/env bash
# Run the kernel microbenchmarks and write, at the repo root:
#   BENCH_kernels.json  the current run ("after") plus, when the committed
#                       seed baseline (bench/BENCH_kernels_seed.json) is
#                       present, the seed numbers ("before") and a
#                       per-benchmark speedup_vs_seed ratio;
#   BENCH_solver.json   the end-to-end BM_SolverStep results alone (the
#                       thread-scaling numbers docs/PERFORMANCE.md quotes).
# Both carry a "host" block (compiler, flags, lane ISA, nproc, git sha) so
# numbers are attributable to the machine and build that produced them.
#
# Usage: bench/run_benchmarks.sh [build-dir] [extra bench_kernels args...]
# Extra args are passed to bench_kernels; with --benchmark_repetitions=N
# the per-repetition medians are used for the ratios, which smooths
# machine noise. The kernel picks its lane width from the CPU at run time;
# the lane_isa stamp (from bench_kernels' context) says which it ran, and
# runs you compare should share it. See docs/PERFORMANCE.md for how to
# read cross-config comparisons.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
[ $# -gt 0 ] && shift

if [ ! -x "$build_dir/bench/bench_kernels" ]; then
  echo "bench_kernels not built; configuring $build_dir" >&2
  cmake -B "$build_dir" -S "$repo_root" > /dev/null
  cmake --build "$build_dir" --target bench_kernels -j "$(nproc)" > /dev/null
fi

# Refuse to record numbers from a non-Release build: -O0/-Og results are
# noise that would silently poison committed baselines. Escape hatch for
# deliberate experiments: AB_BENCH_ALLOW_NONRELEASE=1 warns and tags the
# JSON instead (check_bench_regression.py rejects mixed-build comparisons).
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' "$build_dir/CMakeCache.txt" \
  2>/dev/null | cut -d= -f2 || echo unknown)"
if [ "$build_type" != "Release" ]; then
  if [ "${AB_BENCH_ALLOW_NONRELEASE:-0}" = "1" ]; then
    echo "WARNING: benchmarking a '$build_type' build" \
         "(AB_BENCH_ALLOW_NONRELEASE=1); results are tagged and" \
         "not comparable to Release baselines" >&2
  else
    echo "ERROR: $build_dir is a '$build_type' build, not Release." >&2
    echo "Benchmark numbers from unoptimized builds are meaningless;" >&2
    echo "rebuild with -DCMAKE_BUILD_TYPE=Release (the default) or set" >&2
    echo "AB_BENCH_ALLOW_NONRELEASE=1 to record tagged numbers anyway." >&2
    exit 1
  fi
fi

if [ ! -x "$build_dir/bench/abl_regrid_churn" ]; then
  cmake --build "$build_dir" --target abl_regrid_churn -j "$(nproc)" > /dev/null
fi

if [ ! -x "$build_dir/bench/fig5_block_size" ]; then
  cmake --build "$build_dir" --target fig5_block_size -j "$(nproc)" > /dev/null
fi

if [ ! -x "$build_dir/bench/abl_scale_ranks" ]; then
  cmake --build "$build_dir" --target abl_scale_ranks -j "$(nproc)" > /dev/null
fi

if [ ! -x "$build_dir/bench/abl_obs_overhead" ]; then
  cmake --build "$build_dir" --target abl_obs_overhead -j "$(nproc)" > /dev/null
fi

if [ ! -x "$build_dir/bench/abl_wire_transport" ]; then
  cmake --build "$build_dir" --target abl_wire_transport -j "$(nproc)" > /dev/null
fi

raw="$(mktemp)"
churn_raw="$(mktemp)"
fig5_raw="$(mktemp)"
scale_raw="$(mktemp)"
obs_raw="$(mktemp)"
wire_raw="$(mktemp)"
trap 'rm -f "$raw" "$churn_raw" "$fig5_raw" "$scale_raw" "$obs_raw" "$wire_raw"' EXIT
"$build_dir/bench/bench_kernels" --benchmark_format=json "$@" > "$raw"
# Regrid-churn storm on the pooled block substrate. The fixed min_time
# gives every run >= ~10 iterations; the recorded figure is the median
# of 3 repetitions to ride out host drift.
"$build_dir/bench/abl_regrid_churn" --benchmark_format=json \
  --benchmark_min_time=1 --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true > "$churn_raw"
# Figure-5 block-size curve via the autotuner's probe harness, plus the
# layout the tuner would pick on this host.
"$build_dir/bench/fig5_block_size" --json > "$fig5_raw"
# Distributed- vs global-metadata scale-out sweep (P = 64..4096).
"$build_dir/bench/abl_scale_ranks" --json > "$scale_raw"
# Telemetry overhead ablation: off vs attached vs tracing stepped in
# lockstep (median per-step ratio). The attached-vs-off delta is the
# zero-cost-off contract; tools/check_bench_regression.py --obs-overhead
# gates it at 2%.
"$build_dir/bench/abl_obs_overhead" --json > "$obs_raw"
# Wire transport ablation: board vs shm stepped in lockstep (median
# per-step ratio). The shm-vs-board delta is the in-process wire
# overhead contract; tools/check_bench_regression.py --wire-overhead gates it at
# 2%. Extra reps here: each rep reconstructs the solvers (fresh memory
# layout), and the gated median wants many layout draws.
"$build_dir/bench/abl_wire_transport" --json --reps 10 > "$wire_raw"

# Host metadata stamped into both output files.
compiler="$(c++ --version 2>/dev/null | head -1 || echo unknown)"
cxx_flags="$(grep -E '^CMAKE_CXX_FLAGS_RELEASE:' "$build_dir/CMakeCache.txt" \
  2>/dev/null | cut -d= -f2- || true)"
git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
# Numbers from sources that differ from HEAD do not belong to that commit.
if ! git -C "$repo_root" diff --quiet HEAD -- src bench 2>/dev/null; then
  git_sha="$git_sha+uncommitted"
fi
ncpu="$(nproc 2>/dev/null || echo unknown)"

seed="$repo_root/bench/BENCH_kernels_seed.json"
out="$repo_root/BENCH_kernels.json"
solver_out="$repo_root/BENCH_solver.json"
AB_BENCH_COMPILER="$compiler" \
AB_BENCH_CXX_FLAGS="$cxx_flags" AB_BENCH_GIT_SHA="$git_sha" \
AB_BENCH_NPROC="$ncpu" AB_BENCH_BUILD_TYPE="$build_type" \
python3 - "$raw" "$seed" "$out" "$solver_out" "$churn_raw" \
  "$fig5_raw" "$scale_raw" "$obs_raw" "$wire_raw" <<'EOF'
import json, os, sys

(raw_path, seed_path, out_path, solver_path, churn_path,
 fig5_path, scale_path, obs_path, wire_path) = sys.argv[1:10]
after = json.load(open(raw_path))
host = {
    "compiler": os.environ.get("AB_BENCH_COMPILER", "unknown"),
    # The instruction set the kernel dispatched its lanes to on this host.
    "lane_isa": after.get("context", {}).get("lane_isa", "unknown"),
    "cxx_flags_release": os.environ.get("AB_BENCH_CXX_FLAGS", ""),
    # Our CMAKE_BUILD_TYPE — not google-benchmark's library_build_type,
    # which describes the system benchmark library, not this code.
    "build_type": os.environ.get("AB_BENCH_BUILD_TYPE", "unknown"),
    "nproc": os.environ.get("AB_BENCH_NPROC", "unknown"),
    "git_sha": os.environ.get("AB_BENCH_GIT_SHA", "unknown"),
}
doc = {"context": after.get("context", {}), "host": host,
       "after": after.get("benchmarks", [])}

def representative(benchmarks):
    """name -> items_per_second, preferring the median aggregate when the
    run used repetitions."""
    rep = {}
    for b in benchmarks:
        if not b.get("items_per_second"):
            continue
        name = b["name"]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
            name = b["run_name"]
            rep[name] = b["items_per_second"]
        else:
            rep.setdefault(name, b["items_per_second"])
    return rep

try:
    seed = json.load(open(seed_path))
except OSError:
    seed = None
if seed is not None:
    before = seed.get("benchmarks", seed.get("after", []))
    doc["before"] = before
    doc["seed_context"] = seed.get("context", seed.get("seed_context", {}))
    before_rep = representative(before)
    speedups = {}
    for name, ips in representative(doc["after"]).items():
        if before_rep.get(name):
            speedups[name] = ips / before_rep[name]
    doc["speedup_vs_seed"] = speedups

json.dump(doc, open(out_path, "w"), indent=1)
print(f"wrote {out_path}")
for name, ratio in doc.get("speedup_vs_seed", {}).items():
    print(f"  {name}: {ratio:.2f}x vs seed")

# The end-to-end solver-step numbers get their own file: these are the
# whole-driver (ghost exchange + stage phases + kernels) results, by
# thread count, that regressions in anything outside the kernels show up
# in.
solver = [b for b in doc["after"] if b["name"].startswith("BM_SolverStep")]
solver_doc = {"context": doc["context"], "host": host, "benchmarks": solver}

# Regrid-churn storm on the pooled block substrate (abl_regrid_churn).
churn = json.load(open(churn_path))
churn_doc = {"benchmarks": churn.get("benchmarks", [])}
solver_doc["regrid_churn"] = churn_doc

# Figure-5 block-size curve (src/tune/probe.hpp measurements) and the
# autotuner's pick on this host — the numbers docs/PERFORMANCE.md
# "Autotuned layout" quotes.
fig5 = json.load(open(fig5_path))
solver_doc["fig5"] = fig5

# Distributed- vs global-metadata scale-out sweep (abl_scale_ranks):
# per-rank metadata bytes, hull sizes, and regrid-update traffic by rank
# count — the docs/PERFORMANCE.md distributed-metadata table.
scale = json.load(open(scale_path))
solver_doc["scale_ranks"] = scale

# Telemetry overhead ablation (abl_obs_overhead): ms/step with telemetry
# off, attached-but-quiet, and fully tracing. The attached-vs-off fraction
# is the zero-cost-off contract number docs/OBSERVABILITY.md quotes;
# check_bench_regression.py --obs-overhead BENCH_solver.json gates it.
obs = json.load(open(obs_path))
solver_doc["obs_overhead"] = obs

# Wire transport ablation (abl_wire_transport): ms/step over the
# in-process board and the shared-memory rings, both single-process. The shm-vs-board fraction is the in-process wire
# overhead number docs/PERFORMANCE.md quotes;
# check_bench_regression.py --wire-overhead BENCH_solver.json gates it.
wire = json.load(open(wire_path))
solver_doc["wire_transport"] = wire

json.dump(solver_doc, open(solver_path, "w"), indent=1)
print(f"wrote {solver_path} ({len(solver)} BM_SolverStep entries)")
for name, ips in representative(churn_doc["benchmarks"]).items():
    print(f"  {name}: {ips / 1e9:.2f} G doubles/s churned")
chosen = fig5.get("chosen")
if chosen:
    label = f"{chosen['m']}^3"
    if chosen.get("pad0"):
        label += "+pad"
    if chosen.get("sub_block"):
        label += f" as {chosen['sub_block']}^3 tiles"
    base = next((c["ns_per_cell"] for c in fig5.get("curve", [])
                 if (c["m"], c["pad0"], c["sub_block"]) == (8, 0, 0)), None)
    vs = f" ({base / chosen['ns_per_cell']:.2f}x vs 8^3)" if base else ""
    print(f"  fig5 autotuner pick: {label} at "
          f"{chosen['ns_per_cell']:.1f} ns/cell{vs}")
pts = scale.get("points", [])
if pts:
    w = max(pts, key=lambda p: p["npes"])
    print(f"  scale_ranks: P={w['npes']} metadata "
          f"{w['dist_rank_bytes'] / 1e3:.1f} KB/rank distributed vs "
          f"{w['global_rank_bytes'] / 1e3:.1f} KB/rank global")
print(f"  obs_overhead: attached {100 * obs['attached_overhead_frac']:+.2f}%"
      f" / tracing {100 * obs['tracing_overhead_frac']:+.2f}% vs off"
      f" ({obs['off_ms_per_step']:.3f} ms/step baseline)")
print(f"  wire_transport: shm {100 * wire['shm_overhead_frac']:+.2f}%"
      f" vs board ({wire['board_ms_per_step']:.3f} ms/step baseline, "
      f"{wire['payload_mb_per_step']:.2f} MB/step on the wire)")
EOF
