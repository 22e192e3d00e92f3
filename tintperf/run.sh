#!/usr/bin/env bash
# Builds tintperf from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash tintperf/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary,
# sockets and span files all live under .bench_build/ there, so the
# benchmark reads and writes nothing outside the checkout. Without the
# program's sources beside it the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/go-build"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/home/config"
export XDG_CACHE_HOME="$out/home/cache"

command -v go >/dev/null || { echo "run.sh: the go toolchain is not on PATH" >&2; exit 2; }
(cd "$root/tintperf" && go build -o "$out/tintperf" .) >&2
exec "$out/tintperf" --workdir .bench_build/run "$@"
