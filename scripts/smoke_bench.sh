#!/usr/bin/env bash
# smoke_bench.sh — the benchmark of record as a correctness gate: run
# BENCHMARK.json's command once per workload (seed 1, tracing off) and
# require the verdict line — the last line of stdout — to say the run's
# findings and /v1 bodies matched the oracle ("correct":true) with no
# failed operation ("failed":0). Timings are printed, not judged: on a
# shared runner they are advisory; `make bench-record` / `make
# bench-compare` are how two builds are compared on a quiet box.
#
# Run via `make smoke-bench`.
set -eu
cd "$(dirname "$0")/.."

for w in batch-archive batch-spilled follow-durable read-mixed; do
    verdict=$(bash bench/run.sh --workload "$w" --seed 1 --trace 0 | tail -n 1)
    echo "$w: $verdict"
    case "$verdict" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "smoke-bench: $w: run is not correct or has failed operations" >&2
            exit 1
            ;;
    esac
done
echo "smoke-bench: ok (4 workloads)"
