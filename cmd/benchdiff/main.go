// Command benchdiff is the perf-regression gate: it compares two
// benchmark snapshots written by scripts/bench.sh and exits non-zero
// when the current one regresses past the gates (ns/op beyond the
// noise allowance, B/op growth, allocs/op creep, or a benchmark
// missing from the current snapshot).
//
// Usage:
//
//	scripts/bench.sh /tmp/cur.json
//	benchdiff BENCH_2026-08-05.4.json /tmp/cur.json
//	benchdiff -ns-frac 0.5 -bytes-frac 0.3 -allocs-frac 0.1 base.json cur.json
//	benchdiff BENCH_*.json /tmp/cur.json
//
// Given more than one base snapshot, it gates against the newest by
// the date and sequence number in their BENCH_<date>[.<n>].json names.
package main

import (
	"flag"
	"fmt"
	"os"

	"fxdist/internal/benchdiff"
)

func main() {
	def := benchdiff.DefaultThresholds()
	nsFrac := flag.Float64("ns-frac", def.NsFrac, "allowed fractional ns/op growth before failing")
	bytesFrac := flag.Float64("bytes-frac", def.BytesFrac, "allowed fractional B/op growth before failing")
	allocsFrac := flag.Float64("allocs-frac", def.AllocsFrac, "allowed fractional allocs/op growth before failing")
	flag.Parse()
	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-ns-frac F] [-bytes-frac F] [-allocs-frac F] base.json... current.json")
		os.Exit(2)
	}
	bases, curPath := flag.Args()[:flag.NArg()-1], flag.Arg(flag.NArg()-1)
	basePath := bases[0]
	if len(bases) > 1 {
		var err error
		if basePath, err = benchdiff.Newest(bases); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("gating against %s\n", basePath)
	base, err := benchdiff.Load(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := benchdiff.Load(curPath)
	if err != nil {
		fatal(err)
	}
	th := benchdiff.Thresholds{NsFrac: *nsFrac, BytesFrac: *bytesFrac, AllocsFrac: *allocsFrac}
	deltas, regressed := benchdiff.Diff(base, cur, th)
	benchdiff.WriteText(os.Stdout, base, cur, deltas, th)
	if regressed {
		fmt.Fprintln(os.Stderr, "benchdiff: performance regression detected")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
