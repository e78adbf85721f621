#!/usr/bin/env python3
"""Compare kernel microbenchmark results against the committed seed baseline.

Two modes:

  # Run the benchmarks fresh (the CTest `bench` configuration does this):
  tools/check_bench_regression.py --bench-binary build/bench/bench_kernels

  # Compare an existing google-benchmark JSON (raw, or the BENCH_*.json
  # wrapper run_benchmarks.sh writes):
  tools/check_bench_regression.py --current BENCH_kernels.json

  # Gate the telemetry zero-cost-off contract (BENCH_solver.json wrapper
  # or raw abl_obs_overhead --json output):
  tools/check_bench_regression.py --obs-overhead BENCH_solver.json

  # Gate the in-process wire-transport overhead (BENCH_solver.json wrapper
  # or raw abl_wire_transport --json output):
  tools/check_bench_regression.py --wire-overhead BENCH_solver.json

Exit status is 1 when any benchmark present in both files is slower than
seed by more than --threshold (a ratio: 1.5 means "fails below 1/1.5 of the
seed items/second"). Benchmarks missing on either side are reported but do
not fail the check, and the seed context's compiler/flags are echoed so
cross-configuration comparisons are visible for what they are. Files whose
host blocks both declare a build_type, or both a lane_isa (the instruction
set the kernel dispatched its lanes to), must agree on it; a mismatch is
refused before any comparison.

--obs-overhead additionally (or standalone) asserts that attaching a quiet
Telemetry to the rank solver costs no more than --obs-overhead-max (default
2%) over running with telemetry == nullptr; the full-tracing figure is
echoed but not gated.

--wire-overhead likewise asserts that routing every exchange payload over
the shared-memory ring transport (framing + CRC + ring copies, run
single-process so one process pays both ends) costs no more than
--wire-overhead-max (default 2%) over the in-process MessageBoard, as the
median per-step lockstep ratio.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def representative(benchmarks):
    """name -> items_per_second, preferring the median aggregate when the
    run used repetitions (same logic as bench/run_benchmarks.sh)."""
    rep = {}
    for b in benchmarks:
        if not b.get("items_per_second"):
            continue
        name = b["name"]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
            rep[b["run_name"]] = b["items_per_second"]
        else:
            rep.setdefault(name, b["items_per_second"])
    return rep


def load_benchmarks(path, label):
    """Accept raw google-benchmark JSON or the BENCH_*.json wrapper. A
    missing or malformed file is a usage error reported on stderr, not a
    traceback."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {label} file {path}: "
                 f"{e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {label} file {path} is not valid JSON "
                 f"(line {e.lineno}: {e.msg})")
    if not isinstance(doc, dict):
        sys.exit(f"error: {label} file {path} is not a benchmark JSON "
                 "object (expected google-benchmark output or the "
                 "BENCH_*.json wrapper)")
    benches = doc.get("benchmarks", doc.get("after", []))
    context = doc.get("context", doc.get("seed_context", {}))
    host = doc.get("host", {})
    if not isinstance(host, dict):
        host = {}
    return (benches, context, host.get("build_type"),
            host.get("lane_isa", context.get("lane_isa")))


def run_benchmarks(binary, bench_filter, repetitions):
    cmd = [binary, "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        cmd.append("--benchmark_report_aggregates_only=true")
    try:
        with tempfile.NamedTemporaryFile(mode="w+", suffix=".json") as tmp:
            subprocess.run(cmd, check=True, stdout=tmp)
            tmp.seek(0)
            doc = json.load(tmp)
    except OSError as e:
        sys.exit(f"error: cannot run benchmark binary {binary}: "
                 f"{e.strerror or e}")
    except subprocess.CalledProcessError as e:
        sys.exit(f"error: {binary} exited with status {e.returncode}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {binary} did not produce valid benchmark JSON "
                 f"({e.msg})")
    context = doc.get("context", {})
    return doc.get("benchmarks", []), context, None, context.get("lane_isa")


def check_obs_overhead(path, max_frac):
    """Zero-cost-off gate: the 'attached' (telemetry bound, trace off)
    ms/step must stay within max_frac of the 'off' (telemetry == nullptr)
    baseline. Accepts the BENCH_solver.json wrapper or raw
    abl_obs_overhead --json output. Returns 0 on pass, 1 on fail."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read obs-overhead file {path}: "
                 f"{e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: obs-overhead file {path} is not valid JSON "
                 f"(line {e.lineno}: {e.msg})")
    obs = doc.get("obs_overhead", doc) if isinstance(doc, dict) else None
    if not isinstance(obs, dict) or "attached_overhead_frac" not in obs:
        sys.exit(f"error: {path} has no obs_overhead section (expected "
                 "BENCH_solver.json from bench/run_benchmarks.sh or raw "
                 "abl_obs_overhead --json output)")
    attached = obs["attached_overhead_frac"]
    tracing = obs.get("tracing_overhead_frac")
    print(f"obs overhead: off {obs.get('off_ms_per_step', float('nan')):.3f} "
          f"ms/step, attached {100 * attached:+.2f}%"
          + (f", tracing {100 * tracing:+.2f}%" if tracing is not None else ""))
    if attached > max_frac:
        print(f"FAIL: quiet telemetry costs {100 * attached:.2f}% over the "
              f"telemetry-off path (gate: {100 * max_frac:.1f}%) — the "
              "zero-cost-off contract is broken")
        return 1
    print(f"OK: off-path telemetry overhead within {100 * max_frac:.1f}%")
    return 0


def check_wire_overhead(path, max_frac):
    """In-process wire gate: the shm (shared-memory ring) ms/step must
    stay within max_frac of the board (in-process MessageBoard) baseline.
    Accepts the BENCH_solver.json wrapper or raw abl_wire_transport --json
    output. Returns 0 on pass, 1 on fail."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read wire-overhead file {path}: "
                 f"{e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: wire-overhead file {path} is not valid JSON "
                 f"(line {e.lineno}: {e.msg})")
    wt = doc.get("wire_transport", doc) if isinstance(doc, dict) else None
    if not isinstance(wt, dict) or "shm_overhead_frac" not in wt:
        sys.exit(f"error: {path} has no wire_transport section (expected "
                 "BENCH_solver.json from bench/run_benchmarks.sh or raw "
                 "abl_wire_transport --json output)")
    shm = wt["shm_overhead_frac"]
    print(f"wire overhead: board "
          f"{wt.get('board_ms_per_step', float('nan')):.3f} ms/step, "
          f"shm {100 * shm:+.2f}%")
    if shm > max_frac:
        print(f"FAIL: the shm wire path costs {100 * shm:.2f}% over the "
              f"in-process board (gate: {100 * max_frac:.1f}%) — framing, "
              "CRC, or the ring copies regressed")
        return 1
    print(f"OK: in-process shm wire overhead within {100 * max_frac:.1f}%")
    return 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    src = p.add_mutually_exclusive_group(required=False)
    src.add_argument("--bench-binary", help="bench_kernels binary to run")
    src.add_argument("--current", help="existing benchmark JSON to compare")
    p.add_argument(
        "--obs-overhead",
        metavar="JSON",
        help="BENCH_solver.json (or raw abl_obs_overhead --json output): "
        "gate the telemetry attached-vs-off overhead",
    )
    p.add_argument(
        "--obs-overhead-max",
        type=float,
        default=0.02,
        help="max allowed attached-vs-off overhead fraction (default 0.02)",
    )
    p.add_argument(
        "--wire-overhead",
        metavar="JSON",
        help="BENCH_solver.json (or raw abl_wire_transport --json output): "
        "gate the in-process shm-vs-board wire overhead",
    )
    p.add_argument(
        "--wire-overhead-max",
        type=float,
        default=0.02,
        help="max allowed shm-vs-board overhead fraction (default 0.02)",
    )
    p.add_argument(
        "--seed",
        default=os.path.join(REPO_ROOT, "bench", "BENCH_kernels_seed.json"),
        help="baseline JSON (default: bench/BENCH_kernels_seed.json)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="max allowed slowdown ratio vs seed (default 1.5)",
    )
    p.add_argument(
        "--filter",
        default="",
        help="regex passed to --benchmark_filter (with --bench-binary)",
    )
    p.add_argument(
        "--repetitions",
        type=int,
        default=3,
        help="benchmark repetitions, medians compared (with --bench-binary)",
    )
    args = p.parse_args()
    if args.threshold <= 1.0:
        p.error("--threshold must be > 1.0")
    if not (args.bench_binary or args.current or args.obs_overhead
            or args.wire_overhead):
        p.error("one of --bench-binary, --current, --obs-overhead, or "
                "--wire-overhead is required")
    if args.obs_overhead_max <= 0:
        p.error("--obs-overhead-max must be > 0")
    if args.wire_overhead_max <= 0:
        p.error("--wire-overhead-max must be > 0")

    obs_status = 0
    if args.obs_overhead:
        obs_status = check_obs_overhead(args.obs_overhead,
                                        args.obs_overhead_max)
    if args.wire_overhead:
        obs_status = max(obs_status,
                         check_wire_overhead(args.wire_overhead,
                                             args.wire_overhead_max))
    if args.obs_overhead or args.wire_overhead:
        if not (args.bench_binary or args.current):
            return obs_status
        print()

    seed_benches, seed_ctx, seed_bt, seed_isa = load_benchmarks(
        args.seed, "seed baseline")
    if args.bench_binary:
        cur_benches, cur_ctx, cur_bt, cur_isa = run_benchmarks(
            args.bench_binary, args.filter, args.repetitions
        )
    else:
        cur_benches, cur_ctx, cur_bt, cur_isa = load_benchmarks(
            args.current, "current")

    # Comparisons must be like-for-like: a Debug run "regressing" against a
    # Release seed (or a Release run "fixing" a Debug baseline) is a build
    # configuration artifact, not a code change. Files without a
    # host.build_type tag (historical baselines, raw google-benchmark
    # output) are accepted as before — the check only fires when both
    # sides declare a build type and they disagree.
    if seed_bt and cur_bt and seed_bt != cur_bt:
        sys.exit(
            f"error: build-type mismatch — seed is a '{seed_bt}' build but "
            f"the current run is '{cur_bt}'; rerun both under the same "
            "CMAKE_BUILD_TYPE (bench/run_benchmarks.sh enforces Release) "
            "before comparing"
        )
    # Likewise for the lane ISA: the kernel picks its lane width from the
    # CPU at run time (four doubles under AVX2, else two), so runs on hosts
    # that dispatch differently differ by the host, not by the change.
    if seed_isa and cur_isa and seed_isa != cur_isa:
        sys.exit(
            f"error: lane-ISA mismatch — the seed's kernel ran in "
            f"{seed_isa} lanes but the current run's in {cur_isa}; "
            "compare runs from hosts that dispatch to the same ISA"
        )

    seed_rep = representative(seed_benches)
    cur_rep = representative(cur_benches)
    if not seed_rep:
        print(
            f"error: no comparable benchmarks in the seed baseline "
            f"{args.seed} — an empty baseline would vacuously pass",
            file=sys.stderr,
        )
        return 2
    if not cur_rep:
        print("error: no comparable benchmarks in the current run", file=sys.stderr)
        return 2

    for label, ctx, bt in (("seed", seed_ctx, seed_bt),
                           ("current", cur_ctx, cur_bt)):
        if ctx or bt:
            print(
                f"{label:8s} host: {ctx.get('host_name', '?')}  "
                f"cpus: {ctx.get('num_cpus', '?')}  "
                f"build: {bt or ctx.get('library_build_type', ctx.get('build_type', '?'))}"
            )

    failures = []
    common = sorted(set(seed_rep) & set(cur_rep))
    print(f"\n{'benchmark':40s} {'seed it/s':>12s} {'now it/s':>12s} {'ratio':>7s}")
    for name in common:
        ratio = cur_rep[name] / seed_rep[name]
        flag = ""
        if ratio < 1.0 / args.threshold:
            flag = "  REGRESSION"
            failures.append((name, ratio))
        print(f"{name:40s} {seed_rep[name]:12.3e} {cur_rep[name]:12.3e} "
              f"{ratio:6.2f}x{flag}")
    for name in sorted(set(seed_rep) - set(cur_rep)):
        print(f"{name:40s} (missing from current run)")
    for name in sorted(set(cur_rep) - set(seed_rep)):
        print(f"{name:40s} (no seed baseline)")

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) slower than seed by more "
            f"than {args.threshold:.2f}x:"
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x of seed throughput")
        return 1
    print(f"\nOK: {len(common)} benchmark(s) within {args.threshold:.2f}x of seed")
    return obs_status


if __name__ == "__main__":
    sys.exit(main())
