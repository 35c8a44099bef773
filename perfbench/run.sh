#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload sc-secure --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the go command's config and
# telemetry, temporary files, the binary and the traced run's spans.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
