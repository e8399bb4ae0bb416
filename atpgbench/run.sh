#!/usr/bin/env bash
# Build the benchmark from source, then run it.  From the repository root:
#
#   bash atpgbench/run.sh --workload iv-paper|rc-ladder|serve-mixed \
#     --seed N --seconds S --trace 0|1
#   bash atpgbench/run.sh smoke      # the benchmark's own test, ~1 min
#
# The benchmark is the dune project in atpgbench/bench.  It links the
# repository's libraries, which are private to the root project, so it
# is built in a workspace of its own under atpgbench/_run/build: the
# project's files plus a copy of lib/.  Build output goes to stderr; the
# run's result is the last line of stdout.
set -euo pipefail
if [ ! -d lib ] || [ ! -f atpgbench/bench/dune-project ]; then
  echo "run.sh: run from the repository root (lib/ and atpgbench/bench/ not found)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
build=atpgbench/_run/build
mkdir -p "$build"
# refresh the sources, keep _build: dune rebuilds only what changed
find "$build" -mindepth 1 -maxdepth 1 ! -name _build -exec rm -rf {} +
cp -R atpgbench/bench/. "$build/"
cp -R lib "$build/lib"
dune build --root "$build" --display quiet ./main.exe >&2
exec "$build/_build/default/main.exe" "$@"
