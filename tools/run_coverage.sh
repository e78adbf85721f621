#!/usr/bin/env bash
# Build with coverage instrumentation, run the test suite, and print a
# line-coverage summary for src/. Uses a dedicated build directory
# (build-cov) so the normal Release build stays untouched.
#
# Usage: tools/run_coverage.sh [build-dir] [ctest-label-regex]
#   tools/run_coverage.sh                 # full suite
#   tools/run_coverage.sh build-cov unit  # only tests labeled 'unit'
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-cov}"
label="${2:-}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DAB_COVERAGE=ON
cmake --build "$build_dir" -j "$(nproc)"

ctest_args=(--test-dir "$build_dir" --output-on-failure -j "$(nproc)")
if [[ -n "$label" ]]; then
  ctest_args+=(-L "$label")
fi
ctest "${ctest_args[@]}"

# Summarize with gcovr when available; otherwise point at the raw data.
if command -v gcovr >/dev/null 2>&1; then
  gcovr --root "$repo_root" \
    --filter "$repo_root/src/" \
    --object-directory "$build_dir" \
    --print-summary \
    --sort-percentage \
    --txt "$build_dir/coverage.txt"
  echo "per-file report: $build_dir/coverage.txt"
elif command -v lcov >/dev/null 2>&1; then
  lcov --capture --directory "$build_dir" \
    --output-file "$build_dir/coverage.info" >/dev/null
  lcov --extract "$build_dir/coverage.info" "$repo_root/src/*" \
    --output-file "$build_dir/coverage.info" >/dev/null
  lcov --summary "$build_dir/coverage.info"
else
  echo "note: neither gcovr nor lcov found; raw .gcda/.gcno files are in" \
       "$build_dir (use 'gcov' manually or install gcovr for a summary)"
fi
