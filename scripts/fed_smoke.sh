#!/bin/sh
# fed_smoke.sh — drive a 16-shard federation with cross-shard power
# lending through cmd/clipfed on a fixed seed, require zero lost jobs
# and a clean aggregate-cap audit, and byte-compare two runs to pin the
# shared-clock determinism guarantee. Wired into `make check`.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/clipfed" ./cmd/clipfed

FLAGS="-shards 16 -nodes 4 -budget 400 -jobs 128 -gap 2 -seed 7 -routing locality"
"$TMP/clipfed" $FLAGS > "$TMP/run1.out" 2>"$TMP/run1.err" || {
    echo "fed smoke: clipfed exited non-zero" >&2
    cat "$TMP/run1.out" "$TMP/run1.err" >&2
    exit 1
}

grep -q "aggregate-cap invariant: ok" "$TMP/run1.out" || {
    echo "fed smoke: aggregate-cap audit not clean" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "zero jobs lost" "$TMP/run1.out" || {
    echo "fed smoke: jobs were lost" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "^leases: 0 granted" "$TMP/run1.out" && {
    echo "fed smoke: lending never engaged" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}

"$TMP/clipfed" $FLAGS > "$TMP/run2.out" 2>/dev/null
cmp -s "$TMP/run1.out" "$TMP/run2.out" || {
    echo "fed smoke: repeat run diverged" >&2
    diff "$TMP/run1.out" "$TMP/run2.out" >&2 || true
    exit 1
}

# The parallel executor must reproduce the serial run byte for byte —
# same jobs, leases and audit verdict — with lending active.
"$TMP/clipfed" $FLAGS -workers 4 > "$TMP/run4.out" 2>/dev/null
cmp -s "$TMP/run1.out" "$TMP/run4.out" || {
    echo "fed smoke: parallel run (-workers 4) diverged from serial" >&2
    diff "$TMP/run1.out" "$TMP/run4.out" >&2 || true
    exit 1
}

# With lending off, locality routing takes the partitioned executor
# (one window per shard). Two worker counts must agree byte for byte;
# only the two wall-clock lines on stderr may differ.
PART_FLAGS="$FLAGS -lend=false"
for W in 2 1; do
    "$TMP/clipfed" $PART_FLAGS -workers "$W" > "$TMP/part$W.out" 2> "$TMP/part$W.err" || {
        echo "fed smoke: partitioned run (-workers $W) exited non-zero" >&2
        cat "$TMP/part$W.out" "$TMP/part$W.err" >&2
        exit 1
    }
    cat "$TMP/part$W.out" "$TMP/part$W.err" \
        | grep -v -e '^clipfed: .* wall (' -e '^clipfed shards=' > "$TMP/part$W.txt"
done
grep -q "zero jobs lost" "$TMP/part2.txt" || {
    echo "fed smoke: partitioned run lost jobs" >&2
    cat "$TMP/part2.txt" >&2
    exit 1
}
cmp -s "$TMP/part2.txt" "$TMP/part1.txt" || {
    echo "fed smoke: partitioned run (-workers 2) diverged from -workers 1" >&2
    diff "$TMP/part1.txt" "$TMP/part2.txt" >&2 || true
    exit 1
}

echo "fed smoke: ok (16 shards, lending active, deterministic, parallel-identical, partitioned-identical, zero jobs lost)"
