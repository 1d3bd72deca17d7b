#!/usr/bin/env bash
# smoke_serve.sh — end-to-end smoke test of the retrodnsd serving daemon:
#
#   1. build retrodnsd and start it on a small -follow world (ephemeral port)
#   2. poll /v1/healthz until the first snapshot is published
#   3. hit every /v1 endpoint and require a generation in each response,
#      including two /v1/domain/{name} lookups — a domain from the
#      /v1/patterns/stable listing (body assembled from a shared tail) and
#      one from /v1/shortlist (body rendered whole) — whose body generation
#      must equal the X-Retrodns-Generation header
#   4. SIGTERM the daemon and require a clean drain (exit 0) plus a run
#      report carrying the serve section
#
# Run via `make smoke-serve` (part of CI).
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/retrodnsd" ./cmd/retrodnsd

"$workdir/retrodnsd" -listen 127.0.0.1:0 -follow -stable 60 \
    -report-json "$workdir/report.json" 2>"$workdir/daemon.log" &
pid=$!

# The daemon prints its bound address once the listener is up.
addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^serving /v1 API on http://||p' "$workdir/daemon.log" | head -1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        cat "$workdir/daemon.log" >&2
        echo "smoke-serve: daemon exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke-serve: no bound address in daemon log" >&2
    exit 1
fi

fetch() { curl -fsS "http://$addr$1"; }

# healthz answers 503 until the first snapshot publish; poll it in.
ok=0
for _ in $(seq 1 300); do
    if fetch /v1/healthz >"$workdir/healthz.json" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 0.1
done
if [ "$ok" -ne 1 ]; then
    cat "$workdir/daemon.log" >&2
    echo "smoke-serve: no snapshot published within 30s" >&2
    exit 1
fi
grep -q '"generation"' "$workdir/healthz.json" || {
    echo "smoke-serve: healthz missing generation" >&2
    exit 1
}

for path in /v1/funnel /v1/shortlist /v1/patterns/T1; do
    fetch "$path" >"$workdir/resp.json"
    grep -q '"generation"' "$workdir/resp.json" || {
        echo "smoke-serve: $path missing generation" >&2
        cat "$workdir/resp.json" >&2
        exit 1
    }
done

# Every response must carry the generation header the body claims.
curl -fsS -D "$workdir/headers.txt" -o /dev/null "http://$addr/v1/funnel"
grep -qi '^x-retrodns-generation:' "$workdir/headers.txt" || {
    echo "smoke-serve: funnel response missing X-Retrodns-Generation" >&2
    exit 1
}

# Pull a real domain out of the stable-pattern listing (classification
# needs a full period of scans, so poll while the replay advances) and
# one out of the shortlist, and look each up individually: the first is
# served from its history's shared tail, the second — it carries a
# candidate — from a body rendered whole. Either way the generation in
# the body must be the one in the header.
poll_domain() { # $1 = listing path, $2 = sed expression extracting a name
    local name=
    for _ in $(seq 1 600); do
        name=$(fetch "$1" | sed -n "$2" | head -1)
        [ -n "$name" ] && break
        sleep 0.1
    done
    echo "$name"
}
check_domain() { # $1 = domain, $2 = which path it exercises
    curl -fsS -D "$workdir/domain.headers" -o "$workdir/domain.json" "http://$addr/v1/domain/$1"
    body_gen=$(sed -n 's/^  "generation": \([0-9]*\),$/\1/p' "$workdir/domain.json")
    header_gen=$(tr -d '\r' <"$workdir/domain.headers" | sed -n 's/^[Xx]-[Rr]etrodns-[Gg]eneration: //p')
    if [ -z "$body_gen" ] || [ "$body_gen" != "$header_gen" ]; then
        echo "smoke-serve: /v1/domain/$1 ($2): body generation '$body_gen' vs header '$header_gen'" >&2
        cat "$workdir/domain.json" >&2
        exit 1
    fi
    grep -q "\"domain\": \"$1\"" "$workdir/domain.json" || {
        echo "smoke-serve: /v1/domain/$1 ($2) does not name the domain" >&2
        exit 1
    }
}
domain=$(poll_domain /v1/patterns/stable 's/^    "\(.*\)"[,]*$/\1/p')
if [ -z "$domain" ]; then
    echo "smoke-serve: no stable domain appeared in /v1/patterns/stable" >&2
    exit 1
fi
check_domain "$domain" "shared tail"
flagged=$(poll_domain /v1/shortlist 's/^      "domain": "\(.*\)",$/\1/p')
if [ -z "$flagged" ]; then
    echo "smoke-serve: no candidate appeared in /v1/shortlist" >&2
    exit 1
fi
check_domain "$flagged" "rendered whole"
grep -q '"candidates"' "$workdir/domain.json" || {
    echo "smoke-serve: /v1/domain/$flagged carries no candidates" >&2
    exit 1
}

# Graceful drain: SIGTERM must exit 0 and emit the shutdown report.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
if [ "$status" -ne 0 ]; then
    cat "$workdir/daemon.log" >&2
    echo "smoke-serve: daemon exited $status on SIGTERM" >&2
    exit 1
fi
for key in '"serve"' '"prerendered_bodies"' '"body_templates"' '"bodies_rendered"'; do
    grep -q "$key" "$workdir/report.json" || {
        echo "smoke-serve: run report missing $key" >&2
        exit 1
    }
done

echo "smoke-serve: ok (domain=$domain flagged=$flagged addr=$addr)"
