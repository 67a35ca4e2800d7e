#!/usr/bin/env bash
# crash_smoke.sh — crash-safety gate for the durable publication log.
#
# Boots pubsubd with -data-dir, publishes acknowledged events, kills the
# daemon with SIGKILL (no drain, no flush beyond the per-publish fsync),
# restarts it over the same directory, and asserts `pubsub-cli replay 0`
# returns the full acked history in offset order. Then repeats the cycle
# to prove offsets keep rising monotonically across restarts.
#
# A second leg does the same under -fsync interval (group commit): after
# two quiet sync windows everything acknowledged must replay; killed at
# once, what replays must be a gap-free prefix of what was acknowledged,
# and the next publish must take the offset right after it.
#
# Usage: ./scripts/crash_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:17373
METRICS=127.0.0.1:17374
DIR=$(mktemp -d)
DATA="$DIR/data"

cleanup() {
  [[ -n "${PID:-}" ]] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/pubsubd" ./cmd/pubsubd
go build -o "$DIR/pubsub-cli" ./cmd/pubsub-cli

# boot [fsync policy]: start pubsubd over $DATA.
boot() {
  "$DIR/pubsubd" -addr "$ADDR" -metrics-addr "$METRICS" -log-level warn \
    -data-dir "$DATA" -fsync "${1:-always}" &
  PID=$!
  for _ in $(seq 1 50); do
    curl -fsS "http://$METRICS/metrics" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: pubsubd never came up" >&2
  exit 1
}

# First life: 5 acked publishes, then die without warning.
boot
for i in 1 2 3 4 5; do
  "$DIR/pubsub-cli" -addr "$ADDR" -payload "crash-$i" publish "$i,$i" >/dev/null
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# Second life: every acked event must replay, in offset order.
boot
REPLAY=$("$DIR/pubsub-cli" -addr "$ADDR" replay 0)
echo "$REPLAY"
grep -q "replayed 5 event(s)" <<<"$REPLAY" \
  || { echo "FAIL: expected 5 events after restart" >&2; exit 1; }
for i in 1 2 3 4 5; do
  grep -q "seq=$i .*crash-$i" <<<"$REPLAY" \
    || { echo "FAIL: offset $i lost or reordered after kill -9" >&2; exit 1; }
done

# Offsets continue past the crash: a new publish lands at offset 6.
PUB=$("$DIR/pubsub-cli" -addr "$ADDR" -payload after publish "6,6")
echo "$PUB"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# Third life: the post-crash publish is durable too, at its old offset.
boot
REPLAY=$("$DIR/pubsub-cli" -addr "$ADDR" replay 6)
echo "$REPLAY"
grep -q "replayed 1 event(s)" <<<"$REPLAY" \
  || { echo "FAIL: expected exactly the offset-6 event" >&2; exit 1; }
grep -q 'seq=6 .*"after"' <<<"$REPLAY" \
  || { echo "FAIL: offset 6 lost its payload across the second crash" >&2; exit 1; }

# The log's gauges are visible on /metrics for the stats verb.
METRICS_DUMP=$(curl -fsS "http://$METRICS/metrics")
grep -q "pubsub_wal_next_offset 7" <<<"$METRICS_DUMP" \
  || { echo "FAIL: pubsub_wal_next_offset gauge wrong or missing" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true

# --- -fsync interval: acknowledged from memory, written every 50ms. ---
DATA="$DIR/data-interval"

# Acknowledged and left alone for two sync windows: all of it is on disk.
boot interval
for i in 1 2 3 4 5; do
  "$DIR/pubsub-cli" -addr "$ADDR" -payload "window-$i" publish "$i,$i" >/dev/null
done
sleep 0.2
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
boot interval
REPLAY=$("$DIR/pubsub-cli" -addr "$ADDR" replay 0)
grep -q "replayed 5 event(s)" <<<"$REPLAY" \
  || { echo "FAIL: interval: expected all 5 events two windows after the ack" >&2; echo "$REPLAY" >&2; exit 1; }

# Killed the moment the last ack returns: the tail of the window may be
# gone, but only the tail.
for i in $(seq 6 25); do
  "$DIR/pubsub-cli" -addr "$ADDR" -payload "window-$i" publish "$i,$i" >/dev/null
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
boot interval
REPLAY=$("$DIR/pubsub-cli" -addr "$ADDR" replay 0)
KEPT=$(sed -n 's/^replayed \([0-9]*\) event(s)$/\1/p' <<<"$REPLAY")
echo "interval: $KEPT of 25 acknowledged events survived an immediate kill -9"
[[ "$KEPT" -ge 5 && "$KEPT" -le 25 ]] \
  || { echo "FAIL: interval: $KEPT events replayed, want 5..25" >&2; exit 1; }
for i in $(seq 1 "$KEPT"); do
  grep -q "seq=$i .*window-$i\"" <<<"$REPLAY" \
    || { echo "FAIL: interval: offset $i missing from a $KEPT-event replay: not a prefix" >&2; exit 1; }
done

# Offsets keep rising from the recovered head: no skip, no reuse of a
# surviving offset.
"$DIR/pubsub-cli" -addr "$ADDR" -payload next publish "0,0" >/dev/null
REPLAY=$("$DIR/pubsub-cli" -addr "$ADDR" replay "$((KEPT + 1))")
grep -q "replayed 1 event(s)" <<<"$REPLAY" && grep -q "seq=$((KEPT + 1)) .*\"next\"" <<<"$REPLAY" \
  || { echo "FAIL: interval: publish after recovery did not land at offset $((KEPT + 1))" >&2; echo "$REPLAY" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
echo "crash smoke: OK"
