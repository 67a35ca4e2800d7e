#!/usr/bin/env bash
# bench_guard.sh — the publish-path performance gate.
#
# Usage: ./scripts/bench_guard.sh <output.json>
#
# The output path is required and must not exist: a run never overwrites
# an earlier summary (the committed BENCH_*.json files are trajectory
# points, each recorded once). CI and check.sh pass a scratch path.
#
# Runs, in order:
#   1. the pubsub-bench publish benchmark with -json, three times,
#      keeping the run with the median ops/sec as the summary so one
#      noisy run cannot skew the trajectory; GOMAXPROCS and the CPU
#      model are recorded in the summary, since neither figure means
#      anything without them
#   2. the BenchmarkPublish/disabled micro-benchmark with -benchmem,
#      failing if the telemetry-off publish path performs any heap
#      allocation per operation
#
# The allocs/op gate is the hard contract of the snapshot publish path:
# steady-state Publish must not allocate.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <output.json>   (required; must not exist yet)" >&2
  exit 2
fi
out="$1"
if [[ -e "${out}" ]]; then
  echo "bench_guard: ${out} exists; refusing to overwrite an earlier summary" >&2
  exit 2
fi

gomaxprocs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
cpu_model="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
cpu_model="${cpu_model:-$(uname -m)}"

echo "==> publish benchmark x3 (median ops/sec -> ${out})"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
# Full publication count: the 10k-publication run matches the BENCH_*
# baseline shape and amortises the buffer-fill phase out of allocs/op.
for i in 1 2 3; do
  echo "--- run ${i}/3"
  go run ./cmd/pubsub-bench -exp bench -json "${tmpdir}/run${i}.json"
done

# Keep the run with the median ops/sec. The summaries are one-level
# JSON objects, so a field scrape is safe here.
median="$(for i in 1 2 3; do
  awk -v f="${tmpdir}/run${i}.json" '/"ops_per_sec"/ {gsub(/[",]/,""); print $2, f}' "${tmpdir}/run${i}.json"
done | sort -n | awk 'NR==2 {print $2}')"
if [[ -z "${median}" ]]; then
  echo "bench_guard: could not pick a median run" >&2
  exit 1
fi
# Record the environment as the first two keys of the summary object.
awk -v procs="${gomaxprocs}" -v cpu="${cpu_model//\"/}" '
  NR == 1 && $0 == "{" { print; printf "  \"gomaxprocs\": %d,\n  \"cpu_model\": \"%s\",\n", procs, cpu; next }
  { print }' "${median}" > "${out}"
if ! grep -q '"gomaxprocs"' "${out}"; then
  echo "bench_guard: summary is not the one-level JSON object expected" >&2
  exit 1
fi
echo "==> kept $(basename "${median}") as ${out} (GOMAXPROCS=${gomaxprocs}, ${cpu_model})"

echo "==> matcher micro-benchmarks (informational)"
go test -run 'xxx' -bench 'BenchmarkMatchers' -benchtime 200x -benchmem .

echo "==> zero-alloc gate (BenchmarkPublish/disabled)"
bench_out="$(go test -run 'xxx' -bench 'BenchmarkPublish$/disabled' -benchmem . | tee /dev/stderr)"

# testing -benchmem line shape:
#   BenchmarkPublish/disabled  N  T ns/op  B B/op  A allocs/op
allocs="$(echo "${bench_out}" | awk '/BenchmarkPublish\/disabled/ {print $(NF-1)}')"
if [[ -z "${allocs}" ]]; then
  echo "bench_guard: could not find BenchmarkPublish/disabled in benchmark output" >&2
  exit 1
fi
if [[ "${allocs}" != "0" ]]; then
  echo "bench_guard: publish path allocates (${allocs} allocs/op, want 0)" >&2
  exit 1
fi
echo "==> publish path is allocation-free (0 allocs/op)"
