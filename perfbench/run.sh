#!/usr/bin/env bash
# Build the benchmark from source and run one workload.  From the repository
# root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build messages go to stderr; the result is the last line of stdout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
