#!/usr/bin/env bash
# Build the benchmark and the alice CLI from source, then run the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout; build output goes to stderr.
set -euo pipefail
dune build --root . ./perfbench/perfbench.exe ./bin/alice_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe \
  --alice ./_build/default/bin/alice_cli.exe "$@"
