#!/usr/bin/env bash
# Builds the lahar benchmark from the source tree this script sits in and
# runs it with the given flags, for example
#
#   bash laharbench/run.sh --workload append-rank --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's span files all stay
# under .bench_build at the root of the tree; nothing is fetched.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly \
	GOPROXY=off GOTOOLCHAIN=local

# Run metadata: the commit when the tree is a git checkout, and a digest of
# the Go sources either way, so runs of different code never look alike.
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
source=$(cd "$root" && find . -name '*.go' -not -path './.bench_build/*' -print0 |
	sort -z | xargs -0 cat | sha256sum | cut -c1-12)
(cd "$here" && go build -buildvcs=false \
	-ldflags "-X main.commit=$commit -X main.source=$source" -o "$out/laharbench" .)
cd "$root"
exec "$out/laharbench" "$@"
