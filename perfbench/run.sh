#!/usr/bin/env bash
# Builds the mrts CLIs and the benchmark driver from the checkout this
# script sits in, then runs the benchmark. Run it from the repository root:
#
#	bash perfbench/run.sh --workload figs_serve --seed 1 --seconds 30 --trace 0
#
# Every build artefact, Go cache, journal and log stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mrts-sweep" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of an mrts checkout (go.mod, cmd/ and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/mrts-sweep ./cmd/mrts-serve ./cmd/mrts-cluster >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
