#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload spin-pipe --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own (benchmark/go.mod) that imports the
# repository's internal packages through a replace directive, so it builds
# only inside a checkout of the whole repository. Everything the build writes
# (the Go build cache and the binary) stays under .bench_build in the
# checkout; nothing is downloaded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod or internal/core); the benchmark builds the runtime from source" >&2
	exit 2
fi

mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/dope-benchmark" .)
cd "$root"
exec "$build/dope-benchmark" "$@"
