#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build and run artifact stays under .bench_build/:
#
#   bash bench/run.sh --workload spotsigs --seed 1 --seconds 25 --trace 0
#
# The last line of standard output is the run's JSON summary. The
# benchmark is a package of the repository's Go module: without the
# module (go.mod and the sources next to bench/) it cannot be built, and
# the script exits non-zero before printing anything.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: no go.mod in $root; run it from the repository root" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"

# The go command keeps its caches, and its env and telemetry files under
# the user config directory, inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

go build -buildvcs=false -o "$build/adalsh-bench" ./bench >&2
exec "$build/adalsh-bench" -commit "$commit" -benchmark "$root/BENCHMARK.json" "$@"
