#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one workload.
#
#   bash perfbench/run.sh --workload table2|serve-short|campaign-cover \
#       --seed <n> --seconds <s> --trace 0|1
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, its own config) and the traced run's spans go
# under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOENV=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
