#!/usr/bin/env bash
# health_smoke.sh — lag/health end-to-end gate.
#
# Boots pubsubd with the full observability surface, parks a SIGSTOPped
# subscriber behind a publish burst so real consumer lag accrues, then
# asserts the lag is visible everywhere it should be: the
# pubsub_broker_max_lag_events gauge, /debug/lag, and pubsub-cli lag.
# Health probes must stay green throughout (a slow consumer is the
# subscriber's problem, not the broker's), and /debug/index must parse.
#
# Usage: ./scripts/health_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:17371
METRICS=127.0.0.1:17372
TMP=$(mktemp -d)

cleanup() {
  [[ -n "${SUBPID:-}" ]] && kill -CONT "$SUBPID" 2>/dev/null || true
  [[ -n "${SUBPID:-}" ]] && kill -9 "$SUBPID" 2>/dev/null || true
  [[ -n "${PID:-}" ]] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/pubsubd" ./cmd/pubsubd
go build -o "$TMP/pubsub-cli" ./cmd/pubsub-cli

# Small buffer + low slow threshold so a stalled subscriber trips the
# slow detector quickly; a generous write timeout keeps the blocked
# connection alive (un-evicted) long enough to observe its lag.
"$TMP/pubsubd" -addr "$ADDR" -metrics-addr "$METRICS" \
  -buffer 8 -slow-sub-lag 16 -write-timeout 60s -log-level warn &
PID=$!

# Readiness gates every boot stage; poll until the daemon reports ready.
READY=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$METRICS/readyz" >/dev/null 2>&1; then READY=1; break; fi
  sleep 0.1
done
[[ "$READY" == 1 ]] || { echo "FAIL: /readyz never turned 200" >&2; exit 1; }

curl -fsS "http://$METRICS/healthz" | grep -q '"healthy"' \
  || { echo "FAIL: /healthz not healthy after boot" >&2; exit 1; }

# A subscriber that will fall behind: subscribe the full line, then
# freeze the process so it stops draining its connection.
"$TMP/pubsub-cli" -addr "$ADDR" -count 1000000 subscribe ":" >/dev/null 2>&1 &
SUBPID=$!
SUBSCRIBED=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$METRICS/debug/lag" \
    | python3 -c 'import json,sys; d=json.load(sys.stdin); exit(0 if d.get("subs") else 1)' 2>/dev/null; then
    SUBSCRIBED=1; break
  fi
  sleep 0.1
done
[[ "$SUBSCRIBED" == 1 ]] || { echo "FAIL: subscription never appeared in /debug/lag" >&2; exit 1; }
kill -STOP "$SUBPID"

# Burst enough large payloads to fill the socket buffers and the
# subscription's 8-slot queue (-buffer 8); everything after that
# accrues as lag.
PAYLOAD=$(head -c 65536 /dev/zero | tr '\0' 'x')
for _ in $(seq 1 120); do
  "$TMP/pubsub-cli" -addr "$ADDR" -payload "$PAYLOAD" publish 0.5 >/dev/null
done

SCRAPE=$(curl -fsS "http://$METRICS/metrics")
MAXLAG=$(grep -E '^pubsub_broker_max_lag_events ' <<<"$SCRAPE" | awk '{print $2}')
[[ -n "$MAXLAG" ]] || { echo "FAIL: pubsub_broker_max_lag_events missing from scrape" >&2; exit 1; }
awk -v v="$MAXLAG" 'BEGIN { exit (v > 0 ? 0 : 1) }' \
  || { echo "FAIL: pubsub_broker_max_lag_events = $MAXLAG, want > 0" >&2; exit 1; }
grep -qE '^pubsub_wire_max_conn_lag_events [0-9]' <<<"$SCRAPE" \
  || { echo "FAIL: pubsub_wire_max_conn_lag_events missing from scrape" >&2; exit 1; }

# The lag must show up in the JSON dump and the CLI rendering too, on
# a queue of the capacity -buffer asked for.
curl -fsS "http://$METRICS/debug/lag" \
  | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["head"] >= 120, d["head"]
assert any(s["lag_events"] > 0 for s in d["subs"]), d["subs"]
assert [s["capacity"] for s in d["subs"]] == [8], d["subs"]
' || { echo "FAIL: /debug/lag does not show the lagging subscription on an 8-slot queue" >&2; exit 1; }

"$TMP/pubsub-cli" -metrics-addr "$METRICS" lag | grep -q '^head=' \
  || { echo "FAIL: pubsub-cli lag did not render a summary" >&2; exit 1; }

# Index introspection parses and reports the live population.
curl -fsS "http://$METRICS/debug/index" \
  | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["shard_count"] >= 1, d
assert d["subscriptions"] >= 1, d
' || { echo "FAIL: /debug/index malformed" >&2; exit 1; }

# A slow consumer must not degrade the broker itself.
curl -fsS "http://$METRICS/healthz" | grep -q '"healthy"' \
  || { echo "FAIL: /healthz went unhealthy under consumer lag" >&2; exit 1; }

kill -CONT "$SUBPID" 2>/dev/null || true
kill -9 "$SUBPID" 2>/dev/null || true
wait "$SUBPID" 2>/dev/null || true
SUBPID=

kill -TERM "$PID"
for _ in $(seq 1 100); do
  if ! kill -0 "$PID" 2>/dev/null; then
    wait "$PID" 2>/dev/null || { echo "FAIL: pubsubd exited non-zero" >&2; exit 1; }
    echo "health smoke: OK"
    exit 0
  fi
  sleep 0.1
done
echo "FAIL: pubsubd did not exit on SIGTERM" >&2
exit 1
