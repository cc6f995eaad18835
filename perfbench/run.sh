#!/usr/bin/env bash
# Builds heterod, hetero and the perfbench binary from the checkout this is
# run in, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload measure_hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go build cache, temporary files and the go command's
# telemetry counters, which live under the user config directory, included).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/heterod" ] || [ ! -d "$root/cmd/hetero" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/heterod and cmd/hetero are missing)" >&2
	exit 2
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$build/tmp"
go build -o "$build/bin/" ./cmd/heterod ./cmd/hetero
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -heterod "$build/bin/heterod" -hetero "$build/bin/hetero" \
	-goldens "$root/cmd/hetero/testdata" -out "$build/perfbench" "$@"
