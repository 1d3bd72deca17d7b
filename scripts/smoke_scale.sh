#!/usr/bin/env bash
# smoke_scale.sh — end-to-end smoke test of the paper-scale path:
#
#   1. stream a 50k-domain synthetic corpus to CSV twice with the same
#      seed and require byte-identical output (worldgen determinism)
#   2. ingest + classify the same corpus through retrodns -synth-domains
#      with 1 shard and with 8 shards and require identical findings JSON
#      (shard-count invariance at the binary level), then run the
#      single-goroutine reference pipeline (reference_test.go) over the
#      same corpus and require the binary's findings byte for byte
#   3. require the run report to carry the corpus gauges the sharded
#      dataset publishes (shard occupancy, certificate pool size, estimated
#      corpus bytes)
#   4. guard the whole thing with a wall-clock budget so an accidental
#      quadratic ingest path fails CI instead of slowing it
#
# Run via `make smoke-scale` (part of CI).
set -eu
cd "$(dirname "$0")/.."

DOMAINS=${DOMAINS:-50000}
BUDGET_SECONDS=${BUDGET_SECONDS:-300}

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

go build -o "$workdir/worldgen" ./cmd/worldgen
go build -o "$workdir/retrodns" ./cmd/retrodns

start=$(date +%s)

"$workdir/worldgen" -out "$workdir/a" -domains "$DOMAINS" -seed 7 2>/dev/null
"$workdir/worldgen" -out "$workdir/b" -domains "$DOMAINS" -seed 7 2>/dev/null
cmp -s "$workdir/a/scans.csv" "$workdir/b/scans.csv" || {
    echo "smoke-scale: same seed produced different scans.csv" >&2
    exit 1
}
rows=$(wc -l <"$workdir/a/scans.csv")
if [ "$rows" -le "$DOMAINS" ]; then
    echo "smoke-scale: scans.csv has only $rows rows for $DOMAINS domains" >&2
    exit 1
fi

"$workdir/retrodns" -synth-domains "$DOMAINS" -seed 7 -shards 1 -json \
    >"$workdir/findings-1.json" 2>"$workdir/run-1.log"
"$workdir/retrodns" -synth-domains "$DOMAINS" -seed 7 -shards 8 -json \
    -report-json "$workdir/report-8.json" \
    >"$workdir/findings-8.json" 2>"$workdir/run-8.log"
cmp -s "$workdir/findings-1.json" "$workdir/findings-8.json" || {
    echo "smoke-scale: findings differ between -shards 1 and -shards 8" >&2
    diff "$workdir/findings-1.json" "$workdir/findings-8.json" | head >&2
    exit 1
}

REFERENCE_DOMAINS="$DOMAINS" REFERENCE_FINDINGS="$workdir/findings-ref.json" \
    go test -count=1 -run '^TestReferenceAtScale$' . >"$workdir/reference.log" 2>&1 || {
    echo "smoke-scale: the pipeline diverged from the reference" >&2
    tail -20 "$workdir/reference.log" >&2
    exit 1
}
cmp -s "$workdir/findings-8.json" "$workdir/findings-ref.json" || {
    echo "smoke-scale: findings differ between retrodns and the reference" >&2
    diff "$workdir/findings-8.json" "$workdir/findings-ref.json" | head >&2
    exit 1
}

for gauge in retrodns_corpus_shard_domains retrodns_cert_pool_size \
    retrodns_corpus_bytes_estimate; do
    grep -q "\"$gauge\"" "$workdir/report-8.json" || {
        echo "smoke-scale: run report missing $gauge" >&2
        exit 1
    }
done

elapsed=$(($(date +%s) - start))
if [ "$elapsed" -gt "$BUDGET_SECONDS" ]; then
    echo "smoke-scale: took ${elapsed}s, budget ${BUDGET_SECONDS}s" >&2
    exit 1
fi

echo "smoke-scale: ok ($DOMAINS domains, $rows csv rows, ${elapsed}s)"
