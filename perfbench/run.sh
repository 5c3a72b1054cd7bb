#!/usr/bin/env bash
# Builds perfbench from the sources in the working directory and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload stack-update --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --seed 1 --seconds 5      # every workload
#
# The binary, the Go build cache and the traced run's span files go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is read
# from or written to outside the working directory but the Go
# installation. A build failure exits nonzero without a result line.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

commit=unknown
if rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
	if ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
		commit=$commit-dirty
	fi
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" --trace-dir "$out/trace" "$@"
