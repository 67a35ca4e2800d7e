#!/usr/bin/env bash
# metrics_smoke.sh — observability end-to-end gate.
#
# Boots pubsubd with -metrics-addr and an armed delivery SLO, scrapes
# /metrics, asserts the exposition is well-formed and carries the
# broker/index/dispatch/wire families, checks /metrics?format=json parses
# as JSON, then walks the exemplar loop an operator would: publish a
# traced event, scrape the OpenMetrics exposition, pull a trace-id
# exemplar off a pubsub_stage_seconds bucket line, and resolve it to a
# correlated flight-recorder timeline with pubsub-cli trace. Also
# asserts the default scrape stays exemplar-free and /debug/slo is
# well-formed. Finally verifies the daemon exits cleanly on SIGTERM.
# The in-process goroutine-leak check lives in TestRunMetricsEndpoint
# (cmd/pubsubd), which CI runs alongside this.
#
# Usage: ./scripts/metrics_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:17271
METRICS=127.0.0.1:17272
TMP=$(mktemp -d)
BIN=$TMP/pubsubd
CLI=$TMP/pubsub-cli

cleanup() {
  [[ -n "${PID:-}" ]] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/pubsubd
go build -o "$CLI" ./cmd/pubsub-cli
"$BIN" -addr "$ADDR" -metrics-addr "$METRICS" -log-level warn \
  -slo-delivery-p99 5ms -slo-window 1m &
PID=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$METRICS/metrics" >/dev/null 2>&1 && break
  sleep 0.1
done

SCRAPE=$(curl -fsS "http://$METRICS/metrics")

# The acceptance families: broker publish latency, index visit counts,
# dispatch decision counters, wire connection gauge.
for want in \
  "# TYPE pubsub_broker_publish_seconds histogram" \
  "pubsub_index_nodes_visited" \
  'pubsub_dispatch_decisions_total{method="multicast"}' \
  'pubsub_dispatch_decisions_total{method="unicast"}' \
  "pubsub_wire_active_connections"; do
  if ! grep -qF -- "$want" <<<"$SCRAPE"; then
    echo "FAIL: metrics scrape missing: $want" >&2
    exit 1
  fi
done

# Well-formedness: every line is a comment, blank, or "name[{labels}] value".
if grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+|)$' <<<"$SCRAPE"; then
  echo "FAIL: malformed exposition line(s) above" >&2
  exit 1
fi

curl -fsS "http://$METRICS/metrics?format=json" \
  | python3 -c 'import json,sys; json.load(sys.stdin)' \
  || { echo "FAIL: /metrics?format=json is not valid JSON" >&2; exit 1; }

# Exemplar loop: publish a traced event over the wire, then pull its
# trace id back out of the OpenMetrics exposition's stage buckets.
"$CLI" -addr "$ADDR" -payload smoke publish "10.5,78,2000" >/dev/null

OM=$(curl -fsS -H 'Accept: application/openmetrics-text' "http://$METRICS/metrics")
if ! grep -q '^# EOF$' <<<"$OM"; then
  echo "FAIL: OpenMetrics scrape missing the # EOF terminator" >&2
  exit 1
fi
EXEMPLAR=$(grep '^pubsub_stage_seconds_bucket' <<<"$OM" | grep -o 'trace_id="[0-9a-f]\{16\}"' | head -1 | cut -d'"' -f2)
if [[ -z "$EXEMPLAR" ]]; then
  echo "FAIL: no trace-id exemplar on any pubsub_stage_seconds bucket line" >&2
  exit 1
fi

# The scraped exemplar must resolve to a correlated timeline.
if ! "$CLI" -metrics-addr "$METRICS" trace "$EXEMPLAR" | grep -q "trace $EXEMPLAR"; then
  echo "FAIL: pubsub-cli trace could not resolve scraped exemplar $EXEMPLAR" >&2
  exit 1
fi

# The default scrape must stay plain 0.0.4: no exemplar syntax at all.
if curl -fsS "http://$METRICS/metrics" | grep -qF ' # {'; then
  echo "FAIL: default scrape leaked OpenMetrics exemplar syntax" >&2
  exit 1
fi

# /debug/slo: valid JSON, armed, with a stage waterfall that counted
# the publish above.
curl -fsS "http://$METRICS/debug/slo" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["enabled"] is True, "slo not armed despite -slo-delivery-p99"
assert d["slo"]["objective_seconds"] > 0, d["slo"]
assert d["slo"]["state"] in ("healthy", "degraded", "unhealthy"), d["slo"]
stages = {s["stage"]: s for s in d["stages"]}
assert "ingest" in stages, stages
assert any(s["count"] > 0 for s in d["stages"]), "no stage saw the publish"
' || { echo "FAIL: /debug/slo is missing or malformed" >&2; exit 1; }

# pubsub-cli slo renders the same waterfall with the exemplar column.
if ! "$CLI" -metrics-addr "$METRICS" slo | grep -q "STAGE"; then
  echo "FAIL: pubsub-cli slo did not render the stage table" >&2
  exit 1
fi

kill -TERM "$PID"
for _ in $(seq 1 50); do
  if ! kill -0 "$PID" 2>/dev/null; then
    wait "$PID" 2>/dev/null || { echo "FAIL: pubsubd exited non-zero" >&2; exit 1; }
    echo "metrics smoke: OK"
    exit 0
  fi
  sleep 0.1
done
echo "FAIL: pubsubd did not exit on SIGTERM" >&2
exit 1
