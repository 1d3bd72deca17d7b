#!/usr/bin/env bash
# smoke_spill.sh — end-to-end gate for the out-of-core corpus:
#
#   A. ingest + classify a 200k-domain, 12-scan synthetic corpus fully
#      resident (-json findings, -report-json, peak RSS recorded)
#   B. ingest the same corpus with every shard spilled to on-disk
#      segments (-mem-budget-mb 0) and save it as corpus.snap + segments
#   C. in a fresh process, -spill-load the saved corpus and classify it
#      under the zero budget with streaming segment reads, recording
#      peak RSS
#
# and then require:
#   - findings JSON from A and C byte-identical (spill invariance at the
#     binary level, across a process boundary)
#   - C's run report carries the residency split (resident/spilled bytes,
#     spilled shard count) and segment read counters
#   - both peak RSS figures present; they are printed, not gated: the ratio
#     read 0.43-0.52 run to run on unchanged code, so a 0.5 line told
#     nothing. bench/'s batch-spilled / batch-archive peak_rss_mb measure
#     the same ratio with repeats
#   - a wall-clock budget so a quadratic spill path fails CI loudly
#
# The corpus runs 12 scan dates so the spillable window payload dominates
# the certificate pool (certs stay resident by design); that is the
# paper's shape — years of weekly scans over a mostly stable cert set.
#
# Run via `make smoke-spill` (part of CI). Logs land in
# ${SPILL_LOGDIR:-/tmp/retrodns-spill} for CI artifact upload.
set -eu
cd "$(dirname "$0")/.."

DOMAINS=${DOMAINS:-200000}
SCANS=${SCANS:-12}
BUDGET_SECONDS=${BUDGET_SECONDS:-420}
LOGDIR=${SPILL_LOGDIR:-/tmp/retrodns-spill}

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT
mkdir -p "$LOGDIR"

go build -o "$workdir/retrodns" ./cmd/retrodns

start=$(date +%s)

# A: fully resident reference run.
"$workdir/retrodns" -synth-domains "$DOMAINS" -synth-scans "$SCANS" -seed 7 \
    -json -print-maxrss \
    >"$LOGDIR/findings-resident.json" 2>"$LOGDIR/resident.log"
rss_a=$(sed -n 's/^maxrss_kb=//p' "$LOGDIR/resident.log")

# B: same corpus ingested under a zero budget and saved beside its
# segments. This process pays the ingest peak; the classify process below
# must not.
"$workdir/retrodns" -synth-domains "$DOMAINS" -synth-scans "$SCANS" -seed 7 \
    -spill-dir "$workdir/seg" -mem-budget-mb 0 -spill-save \
    2>"$LOGDIR/save.log"
ls "$workdir/seg"/seg-*.bin >/dev/null 2>&1 || {
    echo "smoke-spill: no segment files sealed" >&2
    exit 1
}

# C: fresh process, classify the saved corpus out of core. Streaming reads
# keep the segment payloads off the resident set (mmap's open-time CRC
# pass would fault every page into RSS).
"$workdir/retrodns" -spill-load -spill-dir "$workdir/seg" -mem-budget-mb 0 \
    -spill-read-mode stream -json -print-maxrss \
    -report-json "$LOGDIR/report-spill.json" \
    >"$LOGDIR/findings-spill.json" 2>"$LOGDIR/spill.log"
rss_c=$(sed -n 's/^maxrss_kb=//p' "$LOGDIR/spill.log")

cmp -s "$LOGDIR/findings-resident.json" "$LOGDIR/findings-spill.json" || {
    echo "smoke-spill: findings differ between resident and spilled runs" >&2
    diff "$LOGDIR/findings-resident.json" "$LOGDIR/findings-spill.json" | head >&2
    exit 1
}

grep -q '"spilled_shards": [1-9]' "$LOGDIR/report-spill.json" || {
    echo "smoke-spill: run report does not show spilled shards" >&2
    exit 1
}
for metric in retrodns_corpus_resident_bytes retrodns_corpus_spilled_bytes \
    retrodns_corpus_spilled_shards retrodns_segment_reads_total; do
    grep -q "\"$metric\"" "$LOGDIR/report-spill.json" || {
        echo "smoke-spill: run report missing $metric" >&2
        exit 1
    }
done

if [ -z "$rss_a" ] || [ -z "$rss_c" ]; then
    echo "smoke-spill: missing maxrss_kb markers (a='$rss_a' c='$rss_c')" >&2
    exit 1
fi

elapsed=$(($(date +%s) - start))
if [ "$elapsed" -gt "$BUDGET_SECONDS" ]; then
    echo "smoke-spill: took ${elapsed}s, budget ${BUDGET_SECONDS}s" >&2
    exit 1
fi

echo "smoke-spill: ok ($DOMAINS domains, resident ${rss_a}KiB vs spilled ${rss_c}KiB, ${elapsed}s)"
