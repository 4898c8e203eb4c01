#!/bin/bash
# The benchmark's entry point, as BENCHMARK.json names it: builds and runs
# the Go program in this directory (a module of its own) with the caller's
# arguments.
set -e
cd "$(dirname "$0")"
exec go run . "$@"
