#!/usr/bin/env bash
# Entry point of the end-to-end benchmark. Builds the benchmark and the
# library it measures from source, then hands its arguments to
# `e2e run`:
#
#   bash perfbench/run.sh --workload flat50 --seed 0 --seconds 10 --trace 0
#
# It must run from a full checkout: it builds the code under test.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# Build outputs stay inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/e2e.exe
exec ./_build/default/perfbench/e2e.exe run "$@"
