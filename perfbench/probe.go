package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"fxdist"
)

// Runtime probe: process-wide allocation, heap, and GC figures over the
// timed window, read from runtime/metrics.

const (
	mAllocObjs = "/gc/heap/allocs:objects"
	mAllocB    = "/gc/heap/allocs:bytes"
	mLiveHeap  = "/gc/heap/live:bytes"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU    = "/cpu/classes/total:cpu-seconds"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
)

type runtimeSample struct {
	allocObjs, allocBytes uint64
	gcCPU, allCPU         float64
	pauses                *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocObjs}, {Name: mAllocB}, {Name: mGCCPU}, {Name: mAllCPU}, {Name: mGCPauses}}
	metrics.Read(s)
	out := runtimeSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		allCPU:     s[3].Value.Float64(),
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[4].Value.Float64Histogram()
	}
	return out
}

// runtimeProbe samples the live heap while the window is open.
type runtimeProbe struct {
	start    runtimeSample
	t0       time.Time
	stop     chan struct{}
	wg       sync.WaitGroup
	peakHeap uint64 // written by the sampler, read after it stops
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{start: readRuntime(), t0: time.Now(), stop: make(chan struct{})}
	p.sampleHeap()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sampleHeap()
			}
		}
	}()
	return p
}

func (p *runtimeProbe) sampleHeap() {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	p.peakHeap = max(p.peakHeap, s[0].Value.Uint64())
}

// runtimeDelta is the probe's report over the window.
type runtimeDelta struct {
	allocObjs, allocBytes uint64
	elapsed               time.Duration
	peakHeapMB            float64
	gcCPUFrac             float64
	gcPauseP99            time.Duration
}

func (p *runtimeProbe) finish() runtimeDelta {
	close(p.stop)
	p.wg.Wait()
	p.sampleHeap()
	end := readRuntime()
	d := runtimeDelta{
		allocObjs:  end.allocObjs - p.start.allocObjs,
		allocBytes: end.allocBytes - p.start.allocBytes,
		elapsed:    time.Since(p.t0),
		peakHeapMB: float64(p.peakHeap) / (1 << 20),
	}
	if cpu := end.allCPU - p.start.allCPU; cpu > 0 {
		d.gcCPUFrac = (end.gcCPU - p.start.gcCPU) / cpu
	}
	d.gcPauseP99 = histDeltaQuantile(p.start.pauses, end.pauses, 0.99)
	return d
}

// histDeltaQuantile estimates quantile q of the observations added
// between two snapshots of a runtime histogram (bucket upper bound).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

// Program reports: the per-layer counts are deltas of the program's own
// public reports (cost profile, plan cache, metric registry) across the
// window.

// stageTotals sums one backend's cost profile per stage: sample counts,
// and wall time, allocated objects and bytes summed over samples. The
// difference of two snapshots is a stageTotals too.
type stageTotals struct {
	queries float64
	count   map[string]float64
	wallNS  map[string]float64
	objects map[string]float64
	bytes   map[string]float64
}

func newStageTotals() stageTotals {
	return stageTotals{count: map[string]float64{}, wallNS: map[string]float64{}, objects: map[string]float64{}, bytes: map[string]float64{}}
}

// costOf snapshots the profile totals of the named backends.
func costOf(kinds ...string) stageTotals {
	t := newStageTotals()
	for _, bc := range fxdist.CostReport() {
		if !slices.Contains(kinds, bc.Backend) {
			continue
		}
		for _, sh := range bc.Shapes {
			t.queries += float64(sh.Queries)
			for _, st := range sh.Stages {
				n := float64(st.Count)
				t.count[st.Stage] += n
				t.wallNS[st.Stage] += n * float64(st.MeanWall)
				t.objects[st.Stage] += n * st.MeanObjects
				t.bytes[st.Stage] += n * st.MeanBytes
			}
		}
	}
	return t
}

// minus is the change from a to t.
func (t stageTotals) minus(a stageTotals) stageTotals {
	d := newStageTotals()
	d.queries = t.queries - a.queries
	for st := range t.count {
		d.count[st] = t.count[st] - a.count[st]
		d.wallNS[st] = t.wallNS[st] - a.wallNS[st]
		d.objects[st] = t.objects[st] - a.objects[st]
		d.bytes[st] = t.bytes[st] - a.bytes[st]
	}
	return d
}

// meanUS is a stage's mean wall time per sample, in microseconds.
func (t stageTotals) meanUS(stage string) float64 {
	if t.count[stage] <= 0 {
		return 0
	}
	return t.wallNS[stage] / t.count[stage] / 1e3
}

// perQuery divides a stage total by the queries profiled.
func (t stageTotals) perQuery(total float64) float64 {
	if t.queries <= 0 {
		return 0
	}
	return total / t.queries
}

// histTotals sums every series of a registry histogram (per-bucket
// counts, as the program's snapshots keep them). The difference of two
// snapshots is a histTotals too.
type histTotals struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
}

func histOf(name string) histTotals {
	var h histTotals
	for _, p := range fxdist.MetricsSnapshot() {
		if p.Name != name || p.Histogram == nil {
			continue
		}
		if h.bounds == nil {
			h.bounds = p.Histogram.Bounds
			h.counts = make([]uint64, len(p.Histogram.Counts))
		}
		if len(p.Histogram.Counts) == len(h.counts) {
			for i, c := range p.Histogram.Counts {
				h.counts[i] += c
			}
		}
		h.count += p.Histogram.Count
		h.sum += p.Histogram.Sum
	}
	return h
}

// minus is the change from a to h.
func (h histTotals) minus(a histTotals) histTotals {
	d := histTotals{bounds: h.bounds, count: h.count - a.count, sum: h.sum - a.sum}
	d.counts = append([]uint64(nil), h.counts...)
	if len(a.counts) == len(h.counts) {
		for i := range d.counts {
			d.counts[i] -= a.counts[i]
		}
	}
	return d
}

func (h histTotals) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// quantile interpolates within a bucket, as the program's own
// snapshots do.
func (h histTotals) quantile(q float64) float64 {
	snap := fxdist.MetricHistogram{Bounds: h.bounds, Counts: h.counts, Count: h.count, Sum: h.sum}
	return snap.Quantile(q)
}
