#!/usr/bin/env bash
# Builds cmd/e3bench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash cmd/e3bench/run.sh --workload oneshot-milp --seed 1 --seconds 15 --trace 0
#
# Everything the build writes — the Go build cache and work files, the toolchain's local
# telemetry (it follows XDG_CONFIG_HOME) and the binary — stays under
# .bench_build/ in the checkout, and no module is ever downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTMPDIR="$out/tmp" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/cmd/e3bench" && go build -o "$out/e3bench" .)
exec "$out/e3bench" "$@"
