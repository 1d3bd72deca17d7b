#!/usr/bin/env bash
# smoke_chaos.sh — end-to-end durability smoke test of the retrodnsd
# WAL + snapshot layer, driven by the chaos harness:
#
#   1. build retrodnsd and cmd/chaos
#   2. run every chaos campaign (kill mid-swap, truncated WAL tail,
#      garbled byte, duplicated log, SIGTERM drain, clock-skewed feed,
#      torn CSV line) against live daemon processes, asserting recovered
#      state — /v1 documents and the canonical run report — is
#      byte-identical to an uninterrupted run and that every injected
#      fault lands in a quarantine counter
#   3. run the warm-restart speedup gate on a 50k-domain corpus: warm
#      boot to final health must be at least 5x faster than cold
#   4. require the chaos verdict JSON to say pass, and require the
#      retrodns_wal_* / retrodns_feed_* metric families in the daemon
#      run reports the campaigns produced
#
# Run via `make smoke-chaos` (part of CI).
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/retrodnsd" ./cmd/retrodnsd
go build -o "$workdir/chaos" ./cmd/chaos

"$workdir/chaos" \
    -retrodnsd "$workdir/retrodnsd" \
    -workdir "$workdir/run" \
    -warm-domains 50000 -warm-speedup 5.0 \
    -report-json "$workdir/chaos.json"

grep -q '"pass": true' "$workdir/chaos.json" || {
    cat "$workdir/chaos.json" >&2
    echo "smoke-chaos: verdict JSON does not say pass" >&2
    exit 1
}

# The durable daemon's run report must export the WAL and feed metric
# families the campaigns assert against, plus the wal report section.
baseline="$workdir/run/baseline/report.json"
for fam in retrodns_wal_appends_total retrodns_wal_records_total \
    retrodns_wal_bytes_total retrodns_wal_snapshots_total \
    retrodns_wal_recovered_generation retrodns_wal_append_seconds \
    retrodns_wal_restore_seconds \
    retrodns_feed_rows_total retrodns_feed_batches_total; do
    grep -q "\"$fam\"" "$baseline" || {
        echo "smoke-chaos: baseline run report missing $fam" >&2
        exit 1
    }
done
grep -q '"wal"' "$baseline" || {
    echo "smoke-chaos: baseline run report missing wal section" >&2
    exit 1
}

# A damaged-recovery report must show the replay counters and the
# quarantined fault that campaign injected.
truncate="$workdir/run/truncate/report.json"
grep -q '"retrodns_wal_replayed_batches_total"' "$truncate" || {
    echo "smoke-chaos: truncate recovery report missing replay counter" >&2
    exit 1
}
grep -q '"torn_tail"' "$truncate" || {
    echo "smoke-chaos: truncate recovery report missing torn_tail quarantine" >&2
    exit 1
}

echo "smoke-chaos: ok"
