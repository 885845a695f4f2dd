#!/usr/bin/env bash
# Builds the host-time benchmark against the simulator in this checkout and
# runs it with the given arguments, e.g.
#
#	bash hostbench/run.sh --workload device-read --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temporaries, telemetry)
# stays under .bench_build/ at the checkout root. The build fails, and the
# script exits non-zero without a result, when the simulator sources are not
# next to this directory.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/hostbench" && go build -buildvcs=false -o "$out/hostbench" .) >&2
cd "$root"
exec "$out/hostbench" "$@"
