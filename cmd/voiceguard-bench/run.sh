#!/usr/bin/env bash
# Builds voiceguard-bench from source and runs it with the given flags.
# Run from the repository root:
#
#   bash cmd/voiceguard-bench/run.sh --workload stream-replay --seed 1 --seconds 16 --trace 0
#
# The build cache, the go command's scratch, config and telemetry files,
# and the binary stay under .bench_build/ in the current directory. Without
# the repository around it (only this directory), the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/voiceguard-bench" .)
exec "$build/voiceguard-bench" "$@"
