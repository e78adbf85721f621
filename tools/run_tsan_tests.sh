#!/usr/bin/env bash
# Build the concurrency-sensitive tests under ThreadSanitizer and run them.
# Uses a dedicated build directory (build-tsan) so the normal Release build
# stays untouched.
#
# Usage: tools/run_tsan_tests.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAB_SANITIZE_THREAD=ON

targets=(thread_pool_test block_pool_test ghost_test
         ghost_batch_test parallel_solver_test amr_solver_test
         subcycling_test determinism_test substrate_determinism_test
         checkpoint_corruption_test fault_test
         tune_probe_test tune_cache_test reblocking_test
         topo_codec_test local_topology_test
         trace_test msg_trace_test expose_test span_conservation_test
         wire_transport_test)
cmake --build "$build_dir" -j "$(nproc)" --target "${targets[@]}"

# ThreadPool and the parallel_for phases of the steppers (ghost fill,
# stage update, epilogue, subcycled level passes) are the threaded code;
# the solver suites drive them at several thread counts. The fault suite
# rides along: recovery rebuilds solver state wholesale, which is exactly
# where a latent race would hide. The substrate suite recycles pooled slabs
# under threaded steppers. The tune suite runs probe sweeps and autotuned
# solvers whose sub-blocked tiling runs inside the threaded stage update.
# The distmeta suite (topology codec + per-rank local
# topology) is single-threaded today but rebuilds shared-looking state on
# every regrid; running it under TSan keeps that assumption checked. The
# obs suite covers the tracer's per-thread shards filled from pool workers,
# the metrics server's serving thread racing registry mutation, and the
# span conservation matrix, which runs causal message tracing — the
# cross-rank tracing hot path. The wire suite
# runs the threaded steppers over the shm rings (including the fork-based
# SPMD cases, which fork while only the main thread is live) — the ring's
# acquire/release pairing is exactly the kind of ordering bug only TSan
# sees.
ctest --test-dir "$build_dir" --output-on-failure \
  -R 'ThreadPool|BlockPool|BlockStorePool|Ghost|ParallelSolver|AmrSolver|Subcycling|Determinism|SubstrateDeterminism|CheckpointCorruption|FaultPlan|FaultyWire|Recovery|Tune|ReBlocking|TopoCodec|TopoDelta|LocalTopology|Tracer|ChromeTraceJson|PhaseScope|MsgTrace|SpanContext|MsgPhase|PrometheusText|DumpMetrics|MetricsServer|SpanConservation|Wire'
