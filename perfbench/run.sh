#!/usr/bin/env bash
# Builds pnnserve, pnnrouter and the benchmark program from this checkout
# into .bench_build, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload exact-disks --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/" pnn/cmd/pnnserve pnn/cmd/pnnrouter .)
exec "$build/bin/perfbench" --bin "$build/bin" --out "$build/out" "$@"
