#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload live|serve|rewind --seed N --seconds S --trace 0|1
# Build cache, binary, data directories and span files stay under
# .perfbench/ in the checkout.
set -euo pipefail
root="$(pwd)"
work="$root/.perfbench"
mkdir -p "$work/gocache" "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOTMPDIR="$work/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
if [ -e "$root/.git" ] && rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
  export PERFBENCH_REV="$rev"
else
  export PERFBENCH_REV="src-sha256:$(cd "$root" && find . -path ./.perfbench -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
    | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
# Data directories of a run killed before its own clean-up.
rm -rf "$work/data"
exec "$work/perfbench" "$@"
