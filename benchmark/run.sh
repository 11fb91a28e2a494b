#!/usr/bin/env bash
# Builds makespand, makespan-lb and the benchmark program from source,
# then runs one benchmark workload:
#
#   bash benchmark/run.sh --workload mc-sampling --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root, including the Go build cache (the first build of a
# fresh checkout compiles the standard library too).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

gobuild() {
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/config" \
		GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off go build "$@"
}

(cd "$root" && gobuild -o "$out/bin/" ./cmd/makespand ./cmd/makespan-lb)
(cd "$root/benchmark" && gobuild -o "$out/bin/benchmark" .)

cd "$root"
exec "$out/bin/benchmark" -bin "$out/bin" -out "$out" "$@"
