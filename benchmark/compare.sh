#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — applies BENCHMARK.json's bounds to
# two results files written by `benchmark/run.sh --out`.
set -euo pipefail
exec "$(dirname "$0")/run.sh" compare "$@"
