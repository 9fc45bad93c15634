#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build dmmlperf from this
# checkout, then become it. Nothing runs in the background and nothing is
# written outside bench/out, the Go build cache included.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOENV=off GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
# go build is a no-op when the binary is current, and fails (so this script
# does, with no result printed) where the repository's sources are missing.
(cd "$here" && go build -o "$out/dmmlperf" ./dmmlperf)
exec "$out/dmmlperf" -out "$out" "$@"
