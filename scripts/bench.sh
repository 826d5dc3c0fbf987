#!/bin/sh
# bench.sh — snapshot the repository's headline benchmarks into a
# dated JSON file (BENCH_<YYYY-MM-DD>.json in the repo root) so perf
# regressions are visible across PRs.
#
# Usage: scripts/bench.sh [-count N] [-benchtime D] [output.json]
set -eu

cd "$(dirname "$0")/.."

COUNT=3
BENCHTIME=1s
OUT=""
while [ $# -gt 0 ]; do
	case "$1" in
	-count) COUNT="$2"; shift 2 ;;
	-benchtime) BENCHTIME="$2"; shift 2 ;;
	*) OUT="$1"; shift ;;
	esac
done
DATE=$(date +%Y-%m-%d)
# Default output is keyed by date and never overwrites an existing
# snapshot: a second run on the same day writes BENCH_<date>.2.json,
# then .3, ... An explicit output argument is used verbatim.
if [ -z "$OUT" ]; then
	OUT="BENCH_${DATE}.json"
	N=2
	while [ -e "$OUT" ]; do
		OUT="BENCH_${DATE}.${N}.json"
		N=$((N + 1))
	done
fi

PATTERN='^(BenchmarkAddressFX|BenchmarkInverseMapping|BenchmarkClusterRetrieve|BenchmarkBatchRetrieve|BenchmarkDistributedRetrieve|BenchmarkDurableRetrieve|BenchmarkDurableBulkLoad|BenchmarkPlanCache|BenchmarkRetrieveWithInjectedLatency|BenchmarkGateRoundTrip)'
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "running go test -bench '$PATTERN' -benchtime $BENCHTIME -count $COUNT ..." >&2
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . | tee "$RAW" >&2

GOVERSION=$(go version | sed 's/^go version //')
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# A snapshot of uncommitted changes says so.
if [ "$COMMIT" != unknown ] && ! git diff --quiet HEAD -- 2>/dev/null; then
	COMMIT="$COMMIT-dirty"
fi
# The hardware the numbers come from: wall times only compare on the
# same CPU model and count.
CPUMODEL=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1 | tr -d '"\\')
[ -n "$CPUMODEL" ] || CPUMODEL=$(uname -m)
NPROC=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)

# Fold repeated -count runs of each benchmark into mean ns/op, B/op,
# allocs/op, and emit one JSON object per benchmark.
awk -v date="$DATE" -v gover="$GOVERSION" -v commit="$COMMIT" -v cpu="$CPUMODEL" -v nproc="$NPROC" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS suffix
	runs[name]++
	iters[name] += $2
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns[name] += $i
		if ($(i+1) == "B/op")      bytes[name] += $i
		if ($(i+1) == "allocs/op") allocs[name] += $i
	}
}
END {
	printf "{\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"cpu_model\": \"%s\",\n", cpu
	printf "  \"nproc\": %d,\n", nproc
	printf "  \"benchmarks\": [\n"
	n = 0
	for (name in runs) order[++n] = name
	# stable output: sort names
	for (i = 1; i <= n; i++)
		for (j = i + 1; j <= n; j++)
			if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %d, \"ns_per_op\": %.1f", \
			name, runs[name], iters[name], ns[name] / runs[name]
		if (name in bytes)  printf ", \"bytes_per_op\": %.1f", bytes[name] / runs[name]
		if (name in allocs) printf ", \"allocs_per_op\": %.1f", allocs[name] / runs[name]
		printf "}%s\n", (i < n ? "," : "")
	}
	printf "  ]\n}\n"
}' "$RAW" >"$OUT"

echo "wrote $OUT" >&2
