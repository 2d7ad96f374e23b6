#!/usr/bin/env bash
# Builds the benchmark and the shipped commands it reads its defaults
# from, then runs it with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload hyperspectral-wire --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Everything built or written stays inside the checkout: the Go build
# cache and binaries under .bench_build, run output under .bench_out.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$root/.bench_out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters
# inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$build/bin/" ./cmd/picoprobe-watch ./cmd/picoprobe-facilityd ./cmd/picoprobe-portal
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
