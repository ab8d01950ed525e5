#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <mpi-lu|store-incr|restore-remote> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, temporary build files, the binary and traced-run
# spans all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
