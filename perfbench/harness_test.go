package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fxdist"
)

// These tests check the harness's own arithmetic; run them with
// `go test ./...` from this directory.

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{1000, 0.99, 990}, // nearest rank 990 leaves exactly 10 beyond
		{2000, 0.99, 1980},
		{500, 0.99, 490}, // p99 would leave 5 beyond: fall back to p98
		{100, 0.99, 90},
		{100, 0.50, 50},
		{15, 0.99, 8}, // capped at the median, not below it
		{1, 0.99, 1},
	}
	for _, c := range cases {
		got := pct(sorted(c.n), c.q)
		if got != c.want {
			t.Errorf("pct(n=%d, q=%v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if beyond := c.n - int(got); c.n > 2*minBeyond && c.q > 0.5 && beyond < minBeyond {
			t.Errorf("pct(n=%d, q=%v): only %d samples beyond", c.n, c.q, beyond)
		}
	}
	if pct(nil, 0.99) != 0 {
		t.Error("pct of no samples should be 0")
	}
	if got := effectiveQ(500, 0.99); got != 0.98 {
		t.Errorf("effectiveQ(500, 0.99) = %v, want 0.98", got)
	}
}

func TestSlicedTailIgnoresOneStall(t *testing.T) {
	// 5000 operations of 1ms over 5s; a stall makes the 100 that finish
	// in the second second take 50ms. The whole-phase p99 is the stall;
	// the median of the five slices' p99 is not.
	p := &phase{Elapsed: 5 * time.Second}
	for i := 0; i < 5000; i++ {
		doneAt := time.Duration(i) * time.Millisecond
		d := time.Millisecond
		if doneAt >= time.Second && doneAt < time.Second+100*time.Millisecond {
			d = 50 * time.Millisecond
		}
		p.tally.observe(d, doneAt, stOK)
	}
	if got := p.p99(); got != 50*time.Millisecond {
		t.Fatalf("whole-phase p99 = %v, want the stall", got)
	}
	if got := p.p99Sliced(); got != time.Millisecond {
		t.Fatalf("sliced p99 = %v, want 1ms", got)
	}
	if got := p.throughputSliced(); got != 1000 {
		t.Fatalf("sliced throughput = %v, want 1000/s", got)
	}
	// Too few samples for two slices of sliceMin: one slice, the whole
	// phase.
	few := &phase{Elapsed: time.Second}
	for i := 0; i < 2*sliceMin-1; i++ {
		few.tally.observe(time.Duration(i), time.Duration(i)*time.Microsecond, stOK)
	}
	if lat, _ := few.bySlice(); len(lat) != 1 {
		t.Fatalf("%d samples split into %d slices, want 1", 2*sliceMin-1, len(lat))
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},   // overlaps the first: union 10..50
		{Start: 45, End: 48},   // inside the union
		{Start: 90, End: 120},  // clipped to the parent: 90..100
		{Start: 200, End: 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 50 {
		t.Fatalf("self time = %d, want 50 (100 minus 40 + 10 covered)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: -5, End: 105}}); got != 0 {
		t.Fatalf("self time under a covering child = %d, want 0", got)
	}
}

func TestKneeSearchIsMonotone(t *testing.T) {
	const lo, hi, probes, limit = 100.0, 1000.0, 6, 1.0
	// A latency that grows with the rate and crosses the limit at thr.
	curve := func(thr float64) func(float64) float64 {
		return func(r float64) float64 { return r / thr * limit }
	}
	prev := 0.0
	for thr := 10.0; thr <= 1200; thr += 7 {
		calls := 0
		measure := curve(thr)
		got := kneeSearch(lo, hi, probes, limit, func(r float64) float64 {
			calls++
			return measure(r)
		})
		if calls > probes {
			t.Fatalf("threshold %v: %d probes, budget %d", thr, calls, probes)
		}
		if got <= 0 {
			t.Fatalf("threshold %v: knee %v, want > 0", thr, got)
		}
		if thr < hi && math.Abs(got-thr) > 1e-6*thr {
			t.Fatalf("threshold %v: knee %v, want the crossing", thr, got)
		}
		if got < prev {
			t.Fatalf("threshold %v: knee %v below %v found for a lower threshold", thr, got, prev)
		}
		prev = got
	}
	if got := kneeSearch(lo, hi, probes, limit, func(float64) float64 { return 0 }); got != hi {
		t.Fatalf("all pass: knee %v, want the ceiling %v", got, hi)
	}
	// A step curve (every probe either passes or fails outright) still
	// never passes a failing rate and never returns zero.
	for thr := 10.0; thr <= 1200; thr += 13 {
		got := kneeSearch(lo, hi, probes, limit, func(r float64) float64 {
			if r <= thr {
				return 0
			}
			return math.Inf(1)
		})
		if got <= 0 || (thr >= lo/4 && got > thr) {
			t.Fatalf("step at %v: knee %v", thr, got)
		}
	}
}

func TestDigestIgnoresOrderAndCatchesDropsAndDuplicates(t *testing.T) {
	recs := [][]string{{"a-1", "b-2"}, {"a-1", "b-3"}, {"a-2", "b-2"}, {"a-1", "b-2"}}
	want := digestOf(recs)
	shuffled := [][]string{recs[2], recs[0], recs[3], recs[1]}
	if got := digestOf(shuffled); got != want {
		t.Fatalf("reordered answer digests differently: %v vs %v", got, want)
	}
	if got := digestOf(recs[:3]); got == want {
		t.Fatal("dropped record not detected")
	}
	if got := digestOf(append(append([][]string(nil), recs...), recs[1])); got == want {
		t.Fatal("duplicated record not detected")
	}
	// Same count, one record swapped for another: the sum must differ.
	swapped := [][]string{recs[0], recs[1], recs[2], {"a-2", "b-3"}}
	if got := digestOf(swapped); got.Count != want.Count || got == want {
		t.Fatalf("substituted record not detected: %v vs %v", got, want)
	}
	// Field boundaries count: ("ab","c") is not ("a","bc").
	if recordHash([]string{"ab", "c"}) == recordHash([]string{"a", "bc"}) {
		t.Fatal("field boundary not hashed")
	}
}

func TestReferenceIndexMatchesBruteForce(t *testing.T) {
	fields := []field{{Name: "x", Card: 5}, {Name: "y", Card: 7, ZipfS: 1.5}, {Name: "z", Card: 3}}
	rng := rand.New(rand.NewSource(3))
	recs := genRecords(fields, 2000, rng)
	ix := newRefIndex(recs, len(fields))
	pool := drawPool(recs, 200, rng, func(r *rand.Rand) []bool {
		return []bool{r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0}
	})
	for _, q := range pool {
		var want digest
		for _, r := range recs {
			ok := true
			for i, v := range q.Values {
				if v != "" && r[i] != v {
					ok = false
				}
			}
			if ok {
				want.add(r)
			}
		}
		if got := ix.answer(q.Values); got != want {
			t.Fatalf("query %v: index %v, brute force %v", q.Values, got, want)
		}
	}
}

// TestInjectedWrongAnswerFailsTheRun runs the in-process read against a
// real cluster with one reference answer corrupted: the run must count
// it as wrong, report correct=false, and exit non-zero.
func TestInjectedWrongAnswerFailsTheRun(t *testing.T) {
	fields := []field{{Name: "a", Card: 16}, {Name: "b", Card: 8}}
	rng := rand.New(rand.NewSource(5))
	recs := genRecords(fields, 500, rng)
	pool := drawPool(recs, 20, rng, func(*rand.Rand) []bool { return []bool{true, false} })
	fillReference(newRefIndex(recs, len(fields)), pool)
	file, err := buildFile(fields, []int{2, 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fsys)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pms := make([]fxdist.PartialMatch, len(pool))
	for k := range pool {
		pms[k] = pmOf(pool[k])
	}
	e := &env{}
	op := retrieveOp(e, c, pool, pms, make([]respSize, 1), make([]latencies, 1))

	clean := newOutcome()
	for k := range pool {
		if _, st := op(0, k); st != stOK {
			t.Fatalf("query %d: status %d before injection", k, st)
		}
		clean.attempted++
	}
	if clean.exitCode() != 0 {
		t.Fatal("a clean run should exit 0")
	}

	pool[3].Want.Count++ // the injected wrong answer
	p := runClosed(50*time.Millisecond, 1, func(int) int { return 3 }, op)
	out := newOutcome()
	account(out, p)
	if out.wrong == 0 || out.wrong != p.tally.attempted() {
		t.Fatalf("wrong = %d of %d attempts, want every attempt wrong", out.wrong, p.tally.attempted())
	}
	if res := out.result(nil); res.Correct || res.Failed != out.wrong {
		t.Fatalf("result %+v: want correct=false and the wrong answers counted as failed", res)
	}
	if out.exitCode() == 0 {
		t.Fatal("a run with a wrong answer must exit non-zero")
	}
}
