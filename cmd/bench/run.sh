#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/bench/run.sh -runs 2 --workload suite --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the go command's own files, the binary and every
# scratch file the runs write stay under .bench_build/ in the current
# directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd cmd/bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
