#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it from the
# repo root. With no arguments: all four workloads, tracing off.
#   perf/run.sh [--seed S]            every end-to-end metric, by name
#   perf/run.sh --trace               plus the traced run: layer table + perf/out/trace_<workload>.json
#   perf/run.sh --smoke               short run checked against BENCHMARK.json's names
#   perf/run.sh noise --sets K        K sets back to back, spread per metric
#   perf/run.sh compare A.json B.json
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1   (what the driver runs)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
