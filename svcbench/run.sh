#!/usr/bin/env bash
# Builds occamy-served, occamy-router and the svcbench program from the
# checkout this script lives in, then runs it:
#
#   bash svcbench/run.sh --workload cold|hot|sweep --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, temporary files, binaries, tier logs,
# cache directories and span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/occamy-served" || ! -d "$root/cmd/occamy-router" ]]; then
	echo "svcbench: $root holds no occamy source tree to build" >&2
	exit 1
fi
out="$root/.bench_build/svcbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: in its default mode the go command forks a detached
# sidecar that outlives the build.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
cd "$root"
go build -o "$out/bin/" ./cmd/occamy-served ./cmd/occamy-router
(cd "$root/svcbench" && go build -o "$out/bin/svcbench" .)
exec "$out/bin/svcbench" -root "$root" -bin "$out/bin" "$@"
