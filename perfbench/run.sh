#!/usr/bin/env bash
# Builds ncadmitd and the benchmark from source, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload churn-http --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, platform files and traces all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/cmd/ncadmitd" ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/ncadmitd and perfbench/ are needed)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/ncadmitd" ./cmd/ncadmitd
(cd perfbench && go build -o "$build/bin/perfbench" .)

sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/bin/perfbench" --daemon "$build/bin/ncadmitd" --workdir "$build/run" --git-sha "$sha" "$@"
