#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload lan_sync --seed 7 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout. The build fails, and the script exits
# non-zero without a result, when the repository's sources are not there.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/otp-bench ./bench
exec .bench_build/otp-bench "$@"
