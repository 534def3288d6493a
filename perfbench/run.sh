#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (see README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload home-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's working files stay
# under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of a full checkout (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
