#!/usr/bin/env bash
# Builds pdpabench from the source tree it sits in and runs it from the
# current directory, which must be the repository root:
#
#   bash cmd/pdpabench/run.sh --workload serve-fresh --seed 1 --seconds 15 --trace 0
#
# Every build product stays under $CARGO_TARGET_DIR (default .bench_build),
# including the Go build cache, so the run writes nothing outside the
# checkout. The benchmark is its own module (a compiled benchmark is a
# package of its own with its own build file, see README.md); it builds
# against the repository two directory levels up through the replace
# directive in go.mod, so it fails to build (and exits non-zero) anywhere
# else.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"

(
	cd "$here"
	env GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
		go build -o "$build/pdpabench" .
) >&2

exec "$build/pdpabench" "$@"
