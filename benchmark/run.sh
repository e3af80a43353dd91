#!/bin/sh
# Builds plantbench from source into .bench_build/ at the root of the checkout
# (Go's build cache, temporary files and toolchain counters go there too, so
# nothing is written outside the checkout) and runs it with the arguments given:
#
#   sh benchmark/run.sh --workload telemetry --seed 1 --seconds 15 --trace 0
#
# The benchmark is a module of its own (benchmark/go.mod) that replaces the
# repository's module with the parent directory; without the repository's
# sources around it the build fails and this script exits non-zero.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/plantbench" .)
cd "$root"
exec "$build/plantbench" "$@"
