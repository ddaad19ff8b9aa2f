#!/usr/bin/env bash
# Builds the ledger inside the checkout (build cache included, so nothing
# is written outside it) and runs it with the given flags. See README.md.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/smaledger" .
exec "$build/smaledger" "$@"
