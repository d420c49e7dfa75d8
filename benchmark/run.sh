#!/bin/sh
# Runs every workload of the repo benchmark, each in a child process of its
# own, prints every metric by name with its unit, writes the records to
# benchmark/out/, and exits non-zero on any wrong answer.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --all "$@"
