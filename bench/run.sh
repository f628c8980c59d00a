#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind stays inside the checkout: the Go build cache, the
# go command's telemetry counters (it keeps them under the user's
# configuration directory) and the binary under .bench_build/, store
# directories under .bench_build/tmp/, results and traces under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config" GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o ../.bench_build/xmlbench .)
exec .bench_build/xmlbench "$@"
