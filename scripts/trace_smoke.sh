#!/usr/bin/env bash
# trace_smoke.sh — end-to-end tracing gate.
#
# Boots pubsubd with every publication sampled, subscribes through one
# client, publishes through another, and asserts the single
# wire-crossing publication left a correlated trace in the daemon's
# flight recorder: the trace id the publisher printed resolves via
# /debug/events to ingest, stages, match, decision, deliver and publish
# records — one stages record, and the one deliver record counting its
# one subscriber in subs — `pubsub-cli trace <id>` renders the same
# timeline with the stage split in pipeline order, and the daemon logged
# the publication once, under that trace id.
#
# Usage: ./scripts/trace_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:17371
METRICS=127.0.0.1:17372
DIR=$(mktemp -d)

cleanup() {
  [[ -n "${SUBPID:-}" ]] && kill -9 "$SUBPID" 2>/dev/null || true
  [[ -n "${PID:-}" ]] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/pubsubd" ./cmd/pubsubd
go build -o "$DIR/pubsub-cli" ./cmd/pubsub-cli

"$DIR/pubsubd" -addr "$ADDR" -metrics-addr "$METRICS" -trace-sample 1 -log-level info 2>"$DIR/pubsubd.log" &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$METRICS/metrics" >/dev/null 2>&1 && break
  sleep 0.1
done

# A live subscriber so the publication has somewhere to go.
"$DIR/pubsub-cli" -addr "$ADDR" -count 1 subscribe "0:10,0:10" >"$DIR/sub.out" &
SUBPID=$!
for _ in $(seq 1 50); do
  grep -q "subscribed" "$DIR/sub.out" 2>/dev/null && break
  sleep 0.1
done

PUB_OUT=$("$DIR/pubsub-cli" -addr "$ADDR" -payload smoke publish "5,5")
echo "$PUB_OUT"
grep -q "published to 1 subscribers" <<<"$PUB_OUT" \
  || { echo "FAIL: publish did not reach the subscriber" >&2; exit 1; }

TRACE=$(sed -n 's/.*trace=\([0-9a-f]\{16\}\).*/\1/p' <<<"$PUB_OUT")
[[ -n "$TRACE" ]] || { echo "FAIL: publish printed no trace id" >&2; exit 1; }

# The raw recorder dump, filtered server-side by the client's trace id,
# must contain the whole correlated chain for this one publication.
EVENTS=$(curl -fsS "http://$METRICS/debug/events?trace=$TRACE")
python3 - "$TRACE" <<'PY' <<<"$EVENTS" || exit 1
import json, sys
trace = sys.argv[1]
dump = json.load(sys.stdin)
kinds = [r["kind"] for r in dump["records"]]
for want in ("ingest", "stages", "match", "decision", "deliver", "publish"):
    if want not in kinds:
        sys.exit(f"FAIL: /debug/events?trace={trace} missing a {want} record (got {kinds})")
if kinds.count("stages") != 1:
    sys.exit(f"FAIL: want exactly one stages record, got {kinds}")
for r in dump["records"]:
    if r["trace"] != trace:
        sys.exit(f"FAIL: filtered dump leaked foreign trace {r['trace']}")
# A multicast is booked once per sink element, with its size: the one
# subscriber's element carries subs=1.
delivers = [r for r in dump["records"] if r["kind"] == "deliver"]
if len(delivers) != 1 or delivers[0]["args"].get("subs") != 1:
    sys.exit(f"FAIL: want one deliver record with subs=1, got {delivers}")
print(f"trace {trace}: {len(kinds)} correlated records: {kinds}")
PY

# The CLI renders the same timeline.
TIMELINE=$("$DIR/pubsub-cli" -metrics-addr "$METRICS" trace "$TRACE")
echo "$TIMELINE"
for want in ingest match decision deliver publish "$TRACE"; do
  grep -q -- "$want" <<<"$TIMELINE" \
    || { echo "FAIL: pubsub-cli trace output missing: $want" >&2; exit 1; }
done
grep -Eq " stages +seq=[0-9]+ wal=[0-9]+ ingest=[0-9]+ match=[0-9]+ enqueue=[0-9]+$" <<<"$TIMELINE" \
  || { echo "FAIL: pubsub-cli trace output has no stages line with wal, ingest, match, enqueue" >&2; exit 1; }

# The sampled publication is logged once, rendered from its records.
LOGGED=$(grep "msg=publish" "$DIR/pubsubd.log" | grep -c "trace_id=$TRACE" || true)
[[ "$LOGGED" == 1 ]] \
  || { echo "FAIL: want one publish log line with trace_id=$TRACE, got $LOGGED:" >&2; cat "$DIR/pubsubd.log" >&2; exit 1; }
grep "trace_id=$TRACE" "$DIR/pubsubd.log"

# The subscriber actually received the event.
for _ in $(seq 1 50); do
  grep -q "smoke" "$DIR/sub.out" 2>/dev/null && break
  sleep 0.1
done
grep -q "smoke" "$DIR/sub.out" \
  || { echo "FAIL: subscriber never printed the event" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
echo "trace smoke: OK"
