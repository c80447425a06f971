#!/usr/bin/env bash
# Builds tmarkd and the perfbench load generator from the checkout it runs in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload classify-dense --seed 1 --seconds 25 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the two binaries, per-run temp directories (removed
# when a run ends), span files and per-run result records.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/tmarkd" ./cmd/tmarkd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tmarkd "$out/tmarkd" -work "$out" "$@"
