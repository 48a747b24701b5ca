#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# like every other file the build and the runs write) and runs it with the
# given arguments. See bench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/bench"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root/bench" "$root/internal" "$root/go.mod" \
	\( -name '*.go' -o -name 'go.mod' \) -newer "$bin" -print -quit)" ]; then
	(cd "$root/bench" && go build -o "$bin" .)
fi

exec "$bin" -root "$root" "$@"
