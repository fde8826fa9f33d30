#!/usr/bin/env bash
# Builds the sample-to-decision benchmark and the experiments CLI from
# source, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash padbench/run.sh --workload fleet-pad --seed 1 --seconds 20 --trace 0
#   bash padbench/run.sh steady --workload fleet-wide --runs 5
#
# Every build product, Go cache and scratch file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go -C padbench build -o "$out/padbench" .
go build -o "$out/experiments" ./cmd/experiments
if [ "${1:-}" = steady ]; then
	shift
	exec "$out/padbench" steady -build "$out" -root "$root" "$@"
fi
exec "$out/padbench" -build "$out" -root "$root" "$@"
