#!/usr/bin/env bash
# Build the benchmark from source and run it.  Run from the repository
# root; every argument is passed on to the benchmark, e.g.
#   bash perfbench/run.sh --workload long_seq --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-_build}"
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
if ! dune build --root . --no-config --build-dir "$build_dir" --profile release \
  ./perfbench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
commit=unknown
if [ -e .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build_dir/default/perfbench/main.exe" "$@" --commit "$commit"
