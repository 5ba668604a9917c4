#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given arguments (see README.md). Everything it writes stays under the
# build directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home" "$build/gocache" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" --trace-dir "$build/traces" "$@"
