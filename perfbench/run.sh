#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Must be started from the repository root.  Dune's shared cache is turned
# off so the build reads and writes only inside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
