#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-explore --seed 1 --seconds 20 --trace 0
#
# The build writes only under .bench_build/perfbench in the working tree:
# the binary, the Go build cache, and the go command's module, config and
# temporary directories.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
