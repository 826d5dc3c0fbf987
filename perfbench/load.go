package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Load generation. A closed loop sends a worker's next request when its
// previous one returns; an open loop sends on a Poisson schedule fixed
// in advance, whatever the system does. Open-loop latency is timed from
// each request's scheduled send time, so a stall charges its wait to
// every request queued behind it (no coordinated omission).

// status is the outcome of one operation.
type status uint8

const (
	stOK    status = iota
	stError        // the program returned an error or refused the request
	stWrong        // the answer differs from the reference
)

// opFunc runs operation k on worker w. It returns when the program
// answered (end), taken before the harness verifies the answer, so
// verification stays outside the measured latency.
type opFunc func(w, k int) (end time.Time, st status)

// failedLatency stands in for the latency of a failed operation: a
// request that fails or is refused misses every latency limit.
const failedLatency = time.Hour

// tally counts operations by outcome and keeps their latencies and
// completion times (offsets from the start of their phase).
type tally struct {
	lat              latencies
	done             []time.Duration
	ok, errs, wrongs int
}

func (t *tally) observe(d, doneAt time.Duration, st status) {
	switch st {
	case stOK:
		t.ok++
	case stError:
		t.errs++
		d = failedLatency
	default:
		t.wrongs++
		d = failedLatency
	}
	t.lat = append(t.lat, d)
	t.done = append(t.done, doneAt)
}

func (t *tally) merge(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.done = append(t.done, o.done...)
	t.ok += o.ok
	t.errs += o.errs
	t.wrongs += o.wrongs
}

func (t tally) attempted() int { return t.ok + t.errs + t.wrongs }

// phase is one measured stretch of load.
type phase struct {
	Rate     float64 // offered rate, 0 for a closed loop
	Elapsed  time.Duration
	tally    tally
	lag      latencies // open loop: lateness of sends by free workers
	maxOut   int       // open loop: most requests due but not finished
	drain    time.Duration
	sortedMu sync.Once
	sorted   []time.Duration
}

func (p *phase) lats() []time.Duration {
	p.sortedMu.Do(func() { p.sorted = p.tally.lat.sorted() })
	return p.sorted
}

func (p *phase) p50() time.Duration { return pct(p.lats(), 0.50) }
func (p *phase) p99() time.Duration { return pct(p.lats(), 0.99) }

// throughput is completed operations per second of the phase.
func (p *phase) throughput() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.tally.ok) / p.Elapsed.Seconds()
}

// Sliced figures. A stall of the whole process (a long collection, the
// host taking the CPU away) lands in one stretch of the run and decides
// a whole-run tail on its own. The sliced figures split the phase into
// equal stretches by completion time and report the median over them,
// so a stall must recur to move them. A slice must hold sliceMin
// samples, so that its own tail stays near p99; a phase with fewer
// samples has fewer slices, down to one.

const (
	maxSlices = 5
	sliceMin  = 500
)

// bySlice groups the phase's latencies and success counts by slice.
func (p *phase) bySlice() ([]latencies, []int) {
	n := min(maxSlices, max(1, len(p.tally.lat)/sliceMin))
	lat := make([]latencies, n)
	ok := make([]int, n)
	width := p.Elapsed / time.Duration(n)
	for i, d := range p.tally.done {
		s := n - 1
		if width > 0 {
			s = min(int(d/width), n-1)
		}
		lat[s] = append(lat[s], p.tally.lat[i])
		if p.tally.lat[i] != failedLatency {
			ok[s]++
		}
	}
	return lat, ok
}

// p99Sliced is the median over slices of each slice's p99 (or the
// highest percentile with ten samples beyond it).
func (p *phase) p99Sliced() time.Duration {
	lat, _ := p.bySlice()
	tails := make([]float64, 0, len(lat))
	for _, l := range lat {
		if len(l) > 0 {
			tails = append(tails, float64(pct(l.sorted(), 0.99)))
		}
	}
	return time.Duration(medianFloat(tails))
}

// throughputSliced is the median over slices of completed operations
// per second.
func (p *phase) throughputSliced() float64 {
	_, ok := p.bySlice()
	width := (p.Elapsed / time.Duration(len(ok))).Seconds()
	rates := make([]float64, len(ok))
	for i, n := range ok {
		if width > 0 {
			rates[i] = float64(n) / width
		}
	}
	return medianFloat(rates)
}

// poissonSchedule draws arrival offsets at the given rate over dur.
func poissonSchedule(rate float64, dur time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// runOpen offers Poisson load at rate for dur to workers concurrent
// senders (one per client connection); next picks each request's pool
// index. A free worker takes the next scheduled request and sends it at
// its time; a request that comes due while every worker is busy waits,
// and that wait counts in its latency. The generator's own lag is how
// late a free worker sent past the scheduled time.
func runOpen(rate float64, dur time.Duration, workers int, rng *rand.Rand, next func() int, op opFunc) *phase {
	sched := poissonSchedule(rate, dur, rng)
	ks := make([]int, len(sched))
	for i := range ks {
		ks[i] = next()
	}
	var taken, done atomic.Int64
	tallies := make([]tally, workers)
	lags := make([]latencies, workers)
	maxOut := make([]int, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(taken.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				at := start.Add(sched[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					lags[w] = append(lags[w], time.Since(at))
				}
				// Requests due by now but not finished: this one, the
				// others queued behind it, and those in flight.
				now := time.Since(start)
				due := sort.Search(len(sched), func(j int) bool { return sched[j] > now })
				if out := due - int(done.Load()); out > maxOut[w] {
					maxOut[w] = out
				}
				end, st := op(w, ks[i])
				tallies[w].observe(end.Sub(at), end.Sub(start), st)
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	p := &phase{Rate: rate, Elapsed: dur}
	if d := time.Since(start.Add(dur)); d > 0 {
		p.drain = d
		p.Elapsed += d
	}
	for w := range tallies {
		p.tally.merge(tallies[w])
		p.lag = append(p.lag, lags[w]...)
		p.maxOut = max(p.maxOut, maxOut[w])
	}
	return p
}

// runClosed runs workers closed loops for dur; next(w) picks worker w's
// next pool index.
func runClosed(dur time.Duration, workers int, next func(w int) int, op opFunc) *phase {
	tallies := make([]tally, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				end, st := op(w, next(w))
				tallies[w].observe(end.Sub(t0), end.Sub(start), st)
			}
		}(w)
	}
	wg.Wait()
	p := &phase{Elapsed: time.Since(start)}
	for _, t := range tallies {
		p.tally.merge(t)
	}
	return p
}

// kneeSearch finds the highest offered rate whose probe figure (a
// latency; +Inf for a failed probe) stays within limit. It probes lo,
// jumps to the ceiling hi while nothing has failed, then bisects in log
// space between the highest pass and the lowest failure, with at most
// probes calls of measure; when even lo fails it looks lower. The
// result interpolates linearly between the last passing and the first
// failing probe to where the figure crosses the limit, so it is not
// quantized to the probe grid. It assumes the figure grows with the
// rate, and it is never zero.
func kneeSearch(lo, hi float64, probes int, limit float64, measure func(rate float64) float64) float64 {
	var good, bad, goodFig, badFig float64
	r := lo
	for i := 0; i < probes; i++ {
		fig := measure(r)
		ok := fig <= limit
		if ok {
			good, goodFig = r, fig
		} else {
			bad, badFig = r, fig
		}
		switch {
		case !ok && good == 0:
			r /= 4
		case ok && bad == 0:
			if r >= hi {
				return r
			}
			r = hi
		default:
			r = math.Sqrt(good * bad)
		}
	}
	switch {
	case bad == 0:
		return good
	case good == 0:
		// Nothing passed: scale the lowest rate probed down to the limit.
		if math.IsInf(badFig, 1) {
			return bad / 4
		}
		return bad * limit / badFig
	case math.IsInf(badFig, 1):
		return good
	}
	return good + (bad-good)*(limit-goodFig)/(badFig-goodFig)
}
