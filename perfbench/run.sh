#!/usr/bin/env bash
# Build the REVERE profile benchmark from source and run it.
#
#   bash perfbench/run.sh --workload univ-join --seed 1 --seconds 20 --trace 0
#
# Run from the repository root (or anywhere: the script changes there).
# Build output goes to _build/; durable-mix data directories go to
# .perfbench/ and are removed when the run ends.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/pdms ]; then
  echo "perfbench: not a REVERE source tree (no dune-project or lib/pdms)" >&2
  exit 2
fi
# No shared build cache, and the compilers' temporary files inside the
# tree: everything the build writes stays in _build/ and .perfbench/.
export DUNE_CACHE=disabled
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
