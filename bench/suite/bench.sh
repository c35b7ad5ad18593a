#!/usr/bin/env bash
# Benchmark entry point, run from the root of a checkout:
#
#   bash bench/suite/bench.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Builds suite.exe from source (dune output goes to stderr), then runs
# `suite.exe run` (--trace 0: end-to-end metrics) or `suite.exe trace`
# (--trace 1: per-layer metrics).  The last stdout line is the result JSON.
set -euo pipefail

mode=run
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      [ "${2:-}" = 1 ] && mode=trace
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

dune build --root . ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe "$mode" "${args[@]}"
