#!/usr/bin/env bash
# Builds spinflow and the benchmark from the checkout in the current
# directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries, the
# serving workloads' data dirs and the traced runs' span dumps.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# With telemetry in its default "local" mode, the first go command under
# a fresh HOME starts a detached (setsid) telemetry child that can outlive
# this script. "go telemetry off" itself starts none and writes the mode
# file every later go command reads.
go telemetry off
go build -o "$out/spinflow" ./cmd/spinflow
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spinflow "$out/spinflow" --workdir "$out/run" "$@"
