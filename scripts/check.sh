#!/usr/bin/env bash
# check.sh — the full local gate, mirroring the CI jobs.
#
# Usage: ./scripts/check.sh
#
# Runs, in order:
#   1. build            go build ./...  (+ cross-builds for 386, linux/arm, arm64 and darwin, go vet
#                       of every package and test on GOARCH=386, and the index tests on GOARCH=386,
#                       where the Go containment kernel runs)
#   2. vet suite        go run ./cmd/pubsub-vet ./...   (stock vet + custom analyzers), no
#                       //pubsub:allow waiver in a non-test file under internal/wire, no match.New or
#                       BruteForce in a non-test file under internal/broker, then the
#                       design weight per package (scripts/loc.sh; printed, never a gate)
#   3. race tests       go test -race ./...  (+ the allocation gates without -race, which they skip under,
#                       the WAL at -cpu 1,2, the broker, the wire and the telemetry — the index in one part, in parts
#                       inline and on the part workers, overflow table over channels and sinks, connection script,
#                       flight-recorder writers on contended shard locks — at -cpu 1,2,4, every benchmark once (BenchmarkRebuildBurst, the selective set-up's
#                       rebuilds, takes a few seconds; the parts benchmark and the client round trip again at -cpu 2), and
#                       10-second fuzzes of the grouped event decoder, the id-list encoder, the
#                       subscribe, unsubscribe and keepalive frames' encoder and decoder against
#                       encoding/json, the flat point queries, the AVX2 containment kernel against the Go loop, the overlay's
#                       plane run against Rect.Contains and the S-tree packing against its reference builder)
#   4. invariant tests  go test -tags=invariants over the flat/index/geometry/match/broker packages
#                       (every AVX2 containment mask is checked against the Go loop)
#   5. metrics smoke    boot pubsubd, scrape /metrics, SIGTERM shutdown
#   6. ledger smoke     bench/ harness tests + 1-second stock, selective, churn, durable and wire workloads through its oracle
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build"
go build ./...
GOARCH=386 go build ./...
GOARCH=386 go vet ./...
GOOS=linux GOARCH=arm go build ./...
GOARCH=arm64 go build ./...
GOOS=darwin go build ./...
GOARCH=386 go test ./internal/flat/... ./internal/stree/... ./internal/rtree/... ./internal/match/...

echo "==> vet suite (stock vet + custom analyzers)"
go run ./cmd/pubsub-vet -list
go run ./cmd/pubsub-vet ./...
if grep -rn --include='*.go' --exclude='*_test.go' '//pubsub:allow' internal/wire/; then
  echo "internal/wire must hold no //pubsub:allow waiver" >&2
  exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' 'match\.New|BruteForce' internal/broker/; then
  echo "internal/broker must pack only S-trees: no match.New, no BruteForce" >&2
  exit 1
fi

echo "==> design weight (non-test lines per package; information only)"
./scripts/loc.sh

echo "==> tests (race)"
go test -race ./...
go test -run 'ZeroAlloc|Allocat' ./...
go test -race -cpu 1,2 ./internal/wal/... ./internal/faultnet/...
go test -race -cpu 1,2,4 ./internal/broker/ ./internal/wire/ ./internal/telemetry/
go test -run '^$' -bench . -benchtime 1x ./...
go test ./internal/broker -run '^$' -bench PublishParts -benchtime 1x -cpu 2
go test ./internal/wire -run '^$' -bench ClientRoundTrip -benchtime 1x -cpu 2
go test ./internal/wire -run '^$' -fuzz '^FuzzEventDecode$' -fuzztime 10s
go test ./internal/wire -run '^$' -fuzz '^FuzzGroupedFrame$' -fuzztime 10s
go test ./internal/wire -run '^$' -fuzz '^FuzzSubscribeEncode$' -fuzztime 10s
go test ./internal/wire -run '^$' -fuzz '^FuzzSubscribeDecode$' -fuzztime 10s
go test ./internal/flat -run '^$' -fuzz '^FuzzPointQuery$' -fuzztime 10s
go test ./internal/flat -run '^$' -fuzz '^FuzzPlaneMask$' -fuzztime 10s
go test ./internal/flat -run '^$' -fuzz '^FuzzBoxes$' -fuzztime 10s
go test ./internal/stree -run '^$' -fuzz '^FuzzBuildEquivalence$' -fuzztime 10s

echo "==> structural invariants (-tags=invariants)"
go test -tags=invariants ./internal/flat/... ./internal/stree/... ./internal/rtree/... ./internal/geometry/... ./internal/match/... ./internal/predindex/... ./internal/broker/...

echo "==> metrics endpoint smoke"
./scripts/metrics_smoke.sh

echo "==> performance ledger: harness tests + workload smokes"
(cd bench && go test ./...)
for w in stock selective churn durable wire; do
  bash bench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0
done

echo "==> all checks passed"
