#!/usr/bin/env bash
# Builds vplan_server and vplan_e2e from the checkout it is run in, then
# runs one benchmark invocation.  Run it from the root of the checkout:
#
#   bash bench/e2e/run.sh --workload rewrite_hot --seed 1 --seconds 15 --trace 0
#
# Every argument is passed to `vplan_e2e run`; the last line of standard
# output is the run's JSON result.  Build output goes to standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/vplan_server.ml ]; then
  echo "run.sh: run from the root of a vplan source checkout" >&2
  exit 2
fi

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
bin=_build/install/default/bin
dune build --root . "$bin/vplan_server" "$bin/vplan_e2e" >&2

PATH="$PWD/$bin:$PATH" exec vplan_e2e run --out-dir e2e-out "$@"
