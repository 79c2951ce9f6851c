#!/usr/bin/env bash
# Builds stackbench from source into the checkout's build directory and runs
# it with the arguments given. Everything the build writes stays inside the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/stackbench" .)
cd "$root"
exec "$build/stackbench" "$@"
