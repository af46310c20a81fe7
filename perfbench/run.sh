#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Fails (non-zero, no result) when the sources are absent.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
