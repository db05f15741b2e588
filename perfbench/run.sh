#!/usr/bin/env bash
# Builds frapp-server and the perfbench program from this checkout's
# sources into .bench_build/ and runs one benchmark workload. Run it
# from the repository root; every argument is passed to perfbench:
#
#   bash perfbench/run.sh --workload ingest-census --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr so the last stdout line stays the JSON
# result. The Go build cache, temporary files, and the go command's
# user configuration (telemetry counters) are kept under .bench_build/
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/frapp-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no frapp-server sources in $root)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/frapp-server" ./cmd/frapp-server >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -server "$build/bin/frapp-server" -workdir "$build/run" "$@"
