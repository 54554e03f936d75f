#!/usr/bin/env bash
# Entry point of the benchmark: builds perf.exe from source, then runs it
# with the given arguments.  Run it from the repository root, e.g.
#   bash perfbench/run.sh --workload flow-fig5 --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail

# The shared dune cache lives outside the checkout; keep the build local.
dune build --root . --cache=disabled ./perfbench/perf.exe >&2
exec ./_build/default/perfbench/perf.exe "$@"
