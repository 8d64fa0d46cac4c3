#!/usr/bin/env bash
# Builds the dismem benchmark from source and runs it with the given
# arguments. Run it from the root of a dismem checkout:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Everything the build and the run write (Go build cache, module cache,
# temporary files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The whatif workload runs the repository's dmserve as a child process.
(cd "$here" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/dmserve" ./cmd/dmserve)
cd "$root"
exec "$out/perfbench" "$@"
