#!/usr/bin/env bash
# Builds the ebad daemon and the benchmark program from the checkout in
# the current directory, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout (Go build cache included).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ebad" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of an eba checkout (go.mod, cmd/ebad and e2ebench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The commit stamp asks git about this checkout only, never a parent repository.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

go build -o "$out/bin/ebad" ./cmd/ebad >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -root "$root" -ebad "$out/bin/ebad" -work "$out/work" "$@"
