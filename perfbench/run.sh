#!/usr/bin/env bash
# Builds cmd/scrutinizerd and the perfbench harness from this checkout and
# runs one benchmark run; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache, module
# cache, temporary files, binaries and the daemons' data directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
# With telemetry in its default "local" mode the go command forks a
# detached sidecar (its own session) that outlives this script; turn it off
# in the private config directory so the run leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

if [[ ! -f go.mod || ! -d cmd/scrutinizerd ]]; then
	echo "run.sh: no scrutinizer source here; run from the repository root" >&2
	exit 2
fi

go build -o "$out/bin/scrutinizerd" ./cmd/scrutinizerd
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" -daemon "$out/bin/scrutinizerd" -workdir "$out/runs" "$@"
