#!/usr/bin/env bash
# lint.sh — machine-check the repo's fault-tolerance conventions (PR 3),
# previously enforced only by reviewer grep:
#
#   1. `panic(` must not be reachable from data paths. Every panic in
#      non-test library/CLI code must be a known API-misuse assert or a
#      Must* static-table helper, allowlisted below by file and content.
#      A new panic — even in an allowlisted file — fails the build until
#      it is either converted to a typed error or explicitly added here.
#
#   2. Must* constructors (MustParse, MustAdd, MustName, ...) may only be
#      called from static tables: the world generator's fixed populations
#      and campaigns, tests, and examples. Data paths must use the
#      error-returning forms.
#
#   3. No `manifest` identifier in non-test Go under internal/wal or
#      internal/segment. Both stores are directories of immutable,
#      CRC-framed, self-naming files; the directory listing is the index,
#      and a derived copy of it is state nothing needs and every write
#      must keep in step. Comments may say a stray manifest.json is
#      ignored.
#
#   4. gofmt: every Go file in the module (tests, examples and the bench
#      harness included) is gofmt-clean. Drift fails the build with the
#      file list.
#
#   5. No `wal.NewFeeder` call in non-test Go under internal/ or cmd/
#      outside internal/wal. The durable follow loop is one type,
#      wal.Follow; a caller that builds its own Feeder is a hand copy of
#      that loop, and copies drift from the code the tests hold.
#
#   6. No varint codec call (binary.Uvarint, binary.AppendVarint,
#      binary.PutUvarint, binary.ReadUvarint, ...) and no crc32.MakeTable in
#      non-test Go under internal/ or cmd/ outside internal/wire. Every
#      durable byte goes through one audited cursor and one CRC table; a
#      hand-rolled decoder beside it is a second set of bounds checks to
#      get wrong.
#
#   7. No "wal.log" literal in non-test Go under internal/ or cmd/ outside
#      internal/wal. The log's file name is wal.LogName; a copy of it is a
#      second place that must change with the store's layout.
#
# Run via `make lint` (part of `make ci`).
set -u
cd "$(dirname "$0")/.."

fail=0

# Non-test library and CLI sources. Examples are demos with static
# fixture zones and are exempt from every rule.
srcs=$(find internal cmd -name '*.go' ! -name '*_test.go' | sort)

# ---- Rule 1: panic( allowlist -------------------------------------------
# file<TAB>content-regex. Content matching keeps the gate tight: a second,
# different panic in an allowlisted file still fails.
panic_allow="
internal/dnscore/name.go	panic(err)
internal/dnscore/zone.go	panic(err)
internal/ipmeta/ipmeta.go	panic(err)
internal/simtime/simtime.go	panic(err)
internal/scanner/scanner.go	panic(\"scanner: AddScan on a frozen Dataset
internal/obsv/obsv.go	panic(\"obsv: odd label list
internal/obsv/obsv.go	panic(fmt.Sprintf(\"obsv: metric %q re-registered
"

while IFS=: read -r file line content; do
    [ -z "$file" ] && continue
    allowed=0
    while IFS=$(printf '\t') read -r afile apattern; do
        [ -z "$afile" ] && continue
        if [ "$file" = "$afile" ] && printf '%s' "$content" | grep -qF "$apattern"; then
            allowed=1
            break
        fi
    done <<EOF
$panic_allow
EOF
    if [ "$allowed" -eq 0 ]; then
        echo "lint: $file:$line: unallowlisted panic( — return a typed error, or add an API-misuse assert to scripts/lint.sh" >&2
        echo "      $content" >&2
        fail=1
    fi
done <<EOF
$(grep -n 'panic(' $srcs /dev/null | grep -v '^\s*//')
EOF

# ---- Rule 2: Must* only in static tables --------------------------------
# Call sites of Must-prefixed identifiers (MustParse, zone.MustAdd, ...)
# outside the allowlisted static-table files. Definitions (func Must...,
# method declarations) and doc comments are excluded by pattern.
# ipmeta.go is allowlisted as a definition site: its Must* helpers wrap
# netip.MustParsePrefix for the world generator's static prefix tables.
must_allow_files="
internal/world/population.go
internal/world/campaign.go
internal/world/world.go
internal/ipmeta/ipmeta.go
"

while IFS=: read -r file line content; do
    [ -z "$file" ] && continue
    case "$content" in
        *"func Must"*|*"func ("*) continue ;;
    esac
    # Skip pure comment lines.
    if printf '%s' "$content" | grep -qE '^[[:space:]]*//'; then
        continue
    fi
    allowed=0
    for afile in $must_allow_files; do
        if [ "$file" = "$afile" ]; then
            allowed=1
            break
        fi
    done
    if [ "$allowed" -eq 0 ]; then
        echo "lint: $file:$line: Must* call outside a static table — use the error-returning form" >&2
        echo "      $content" >&2
        fail=1
    fi
done <<EOF
$(grep -nE '(^|[^[:alnum:]_])(\w+\.)?Must[A-Z][A-Za-z]*\(' $srcs /dev/null)
EOF

# ---- Rule 3: no manifest in the two stores ------------------------------
if grep -ni 'manifest' $(printf '%s\n' $srcs | grep -E '^internal/(wal|segment)/') /dev/null \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
    echo "lint: manifest identifier under internal/wal or internal/segment — the directory listing is the index" >&2
    fail=1
fi

# ---- Rule 4: gofmt-clean ------------------------------------------------
# The module's Go files, minus the benchmark's build and work directories
# (bench/run.sh puts a Go cache and generated inputs there).
if ! command -v gofmt >/dev/null; then
    echo "lint: gofmt not on PATH" >&2
    fail=1
fi
unformatted=$(find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' \
    -not -path './.bench_work/*' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    printf 'lint: %s: not gofmt-clean — run gofmt -w\n' $unformatted >&2
    fail=1
fi

# ---- Rule 5: one durable follow loop ------------------------------------
if grep -n 'NewFeeder(' $(printf '%s\n' $srcs | grep -v '^internal/wal/') /dev/null \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
    echo "lint: wal.NewFeeder outside internal/wal — drive the durable follow loop through wal.Follow" >&2
    fail=1
fi

# ---- Rule 6: one binary codec --------------------------------------------
if grep -nE 'binary\.(Append|Put|Read)?U?[vV]arint|crc32\.MakeTable' \
    $(printf '%s\n' $srcs | grep -v '^internal/wire/') /dev/null \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
    echo "lint: varint or CRC table outside internal/wire — encode and decode through wire.Writer/wire.Reader and wire.Checksum" >&2
    fail=1
fi

# ---- Rule 7: the log's file name lives in wal ----------------------------
if grep -nF '"wal.log"' $(printf '%s\n' $srcs | grep -v '^internal/wal/') /dev/null \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
    echo "lint: \"wal.log\" literal outside internal/wal — use wal.LogName" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
    exit 1
fi
echo "lint: ok ($(printf '%s\n' $srcs | wc -l | tr -d ' ') files)"
