#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache) and every result file goes
# under .bench_build/ at the checkout root, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/results" "$@"
