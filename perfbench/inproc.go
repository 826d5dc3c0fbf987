package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fxdist"
)

// In-process workloads: a library user calling Cluster.RetrieveContext
// on the memory backend (wide-inproc) and the durable backend beside a
// writer (durable-rw).

// pmOf converts a pooled query to the program's value-level form.
func pmOf(q pmQuery) fxdist.PartialMatch {
	pm := make(fxdist.PartialMatch, len(q.Values))
	for i, v := range q.Values {
		if v != "" {
			v := v
			pm[i] = &v
		}
	}
	return pm
}

// stageSpans adds a retrieval's Stages as children of its call span:
// the top-level stages partition the call in order; auxiliary stages
// (device.scan, net.*) refine fanout and start with it.
func stageSpans(rec *recorder, call span, stages []fxdist.StageSample) []span {
	var out []span
	at := call.Start
	var fanout span
	for _, st := range stages {
		switch st.Stage {
		case fxdist.StagePlan, fxdist.StageFanout, fxdist.StageMerge, fxdist.StageAudit:
			s := span{ID: rec.newID(), Parent: call.ID, Name: "engine." + st.Stage, Start: at, End: at + int64(st.Wall)}
			at = s.End
			if st.Stage == fxdist.StageFanout {
				fanout = s
			}
			out = append(out, s)
		}
	}
	for _, st := range stages {
		switch st.Stage {
		case fxdist.StagePlan, fxdist.StageFanout, fxdist.StageMerge, fxdist.StageAudit:
		default:
			parent := fanout
			if parent.ID == 0 {
				parent = call
			}
			out = append(out, span{ID: rec.newID(), Parent: parent.ID, Name: "engine." + st.Stage, Start: parent.Start, End: parent.Start + int64(st.Wall)})
		}
	}
	return out
}

// retrieveOp builds the in-process read: one RetrieveContext per pooled
// query, checked against the reference. With tracing on it records an
// engine.retrieve span with the result's stages below it and keeps the
// call's own share (the call minus its stages) in callSelf[w].
func retrieveOp(e *env, c *fxdist.Cluster, pool []pmQuery, pms []fxdist.PartialMatch, sizes []respSize, callSelf []latencies) opFunc {
	return func(w, k int) (time.Time, status) {
		var s span
		traced := e.rec.sample()
		t0 := time.Now()
		res, err := c.RetrieveContext(context.Background(), pms[k])
		end := time.Now()
		e.rec.served(traced, end.Sub(t0))
		if traced {
			s = span{ID: e.rec.newID(), Name: "engine.retrieve", Start: e.rec.at(t0), End: e.rec.at(end)}
			e.rec.add(s)
			kids := stageSpans(e.rec, s, res.Stages)
			top := kids[:0:0]
			for _, kid := range kids {
				e.rec.add(kid)
				if kid.Parent == s.ID {
					top = append(top, kid)
				}
			}
			callSelf[w] = append(callSelf[w], selfTime(s, top))
		}
		if err != nil {
			return end, stError
		}
		if digestOf(res.Records) != pool[k].Want {
			return end, stWrong
		}
		sizes[w].observe(res.DeviceBuckets, res.LargestResponseSize)
		return end, stOK
	}
}

// callSelfUS is the mean call-minus-stages time, in microseconds.
func callSelfUS(callSelf []latencies) float64 {
	var sum time.Duration
	n := 0
	for _, l := range callSelf {
		for _, d := range l {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

// wide-inproc: 200k records over 10 uniform fields on M=16, each field
// specified with probability 0.6, which gives about 1000 query shapes
// against the plan cache's 256 entries.

var wideParams = struct {
	Fields  []field `json:"fields"`
	Depths  []int   `json:"depths"`
	Records int     `json:"records"`
	M       int     `json:"m"`
	Pool    int     `json:"pool"`
	P       float64 `json:"spec_probability"`
	Workers int     `json:"workers"`
}{
	Fields: func() []field {
		fs := make([]field, 10)
		for i := range fs {
			fs[i] = field{Name: fmt.Sprintf("f%d", i), Card: 8}
		}
		return fs
	}(),
	Depths: []int{2, 2, 2, 2, 1, 1, 1, 1, 1, 1}, Records: 200000, M: 16, Pool: 4000, P: 0.6, Workers: 2,
}

func runWideInproc(e *env) (*outcome, error) {
	p := wideParams
	rng := rand.New(rand.NewSource(e.seed))
	recs := genRecords(p.Fields, p.Records, rng)
	pool := drawPool(recs, p.Pool, rng, func(r *rand.Rand) []bool {
		for {
			spec := make([]bool, len(p.Fields))
			any := false
			for i := range spec {
				spec[i] = r.Float64() < p.P
				any = any || spec[i]
			}
			if any { // whole-file queries are left out
				return spec
			}
		}
	})
	fillReference(newRefIndex(recs, len(p.Fields)), pool)
	pms := make([]fxdist.PartialMatch, len(pool))
	shapes := map[string]bool{}
	for k, q := range pool {
		pms[k] = pmOf(q)
		shapes[q.shape()] = true
	}
	out := newOutcome()
	out.info["params"] = p
	out.info["pool_shapes"] = len(shapes)
	out.info["mean_answer_records"] = meanAnswer(pool)

	var c *fxdist.Cluster
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.Close()
		}
		t0 := time.Now()
		file, err := buildFile(p.Fields, p.Depths, recs)
		if err != nil {
			return nil, err
		}
		fsys, err := file.FileSystem(p.M)
		if err != nil {
			return nil, err
		}
		fx, err := fxdist.NewFX(fsys)
		if err != nil {
			return nil, err
		}
		if c, err = fxdist.Open(fxdist.Config{File: file, Allocator: fx}); err != nil {
			return nil, err
		}
		for _, pm := range pms[:512] {
			if _, err := c.RetrieveContext(context.Background(), pm); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer c.Close()

	sizes := make([]respSize, p.Workers)
	callSelf := make([]latencies, p.Workers)
	op := retrieveOp(e, c, pool, pms, sizes, callSelf)
	next := perWorker(len(pool), p.Workers, e.seed)

	probe := startRuntimeProbe()
	e.rec.setOn(e.trace)
	a := takeEngineSnap(c, fxdist.KindMemory)
	main := runClosed(e.window, p.Workers, next, op)
	phases := []*phase{main}
	if e.trace {
		engineLayers(out, a, takeEngineSnap(c, fxdist.KindMemory), main.tally.ok)
		out.metrics["engine.call_self_us"] = callSelfUS(callSelf)
		overhead(out, e.rec)
		e.rec.setOn(false)
	}
	rd := probe.finish()
	out.metrics["p50_ms"] = ms(main.p50())
	out.metrics["p99_ms"] = ms(main.p99Sliced())
	out.metrics["qps"] = main.throughputSliced()
	runtimeMetrics(out, rd, completed(phases))
	account(out, phases...)
	lrsInto(out, sizes)
	out.info["closed"] = phaseInfo(main)
	return out, nil
}

// durable-rw: the durable backend in a scratch directory, preloaded
// with BulkInsert; one closed-loop reader issues partial-match
// retrieves while one writer inserts 64-record batches and calls Sync
// after each batch. The writer's records take their first field from a
// universe the reader never asks for, so every read has a fixed
// reference answer; the writes are checked after the window.

var durFields = []field{
	{Name: "region", Card: 64},
	{Name: "item", Card: 500, ZipfS: 1.1},
	{Name: "color", Card: 16},
	{Name: "size", Card: 8},
}

var durParams = struct {
	Fields      []field `json:"fields"`
	Depths      []int   `json:"depths"`
	Preload     int     `json:"preload_records"`
	M           int     `json:"m"`
	Pool        int     `json:"pool"`
	P           float64 `json:"spec_probability_other_fields"`
	Batch       int     `json:"write_batch"`
	WriteRate   float64 `json:"write_records_per_s"`
	FlushPolicy string  `json:"flush_policy"`
	WriterKeys  int     `json:"writer_region_values"`
}{
	Fields: durFields, Depths: []int{2, 2, 1, 1}, Preload: 40000, M: 16, Pool: 2000, P: 0.5,
	Batch: 64, WriteRate: 500, FlushPolicy: "Sync after every 64-record batch; batches offered at a fixed 500 records/s", WriterKeys: 16,
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func userBytes(recs [][]string) int64 {
	var n int64
	for _, r := range recs {
		for _, f := range r {
			n += int64(len(f))
		}
	}
	return n
}

// writer inserts batches until stop closes, timing its calls.
type writer struct {
	c        *fxdist.DurableCluster
	lock     *sync.RWMutex // held across each batch's inserts
	rng      *rand.Rand
	rec      *recorder
	inserted [][]string
	insert   latencies
	sync     latencies
	err      error
}

func (wr *writer) run(stop <-chan struct{}) {
	p := durParams
	wfields := append([]field{{Name: "wregion", Card: p.WriterKeys}}, durFields[1:]...)
	every := time.Duration(float64(p.Batch) / p.WriteRate * float64(time.Second))
	due := time.Now()
	for {
		// Batches are due on a fixed schedule; a late writer sends the
		// overdue ones back to back.
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		due = due.Add(every)
		batch := genRecords(wfields, p.Batch, wr.rng)
		wr.lock.Lock()
		for _, r := range batch {
			t0 := time.Now()
			if err := wr.c.Insert(fxdist.Record(r)); err != nil {
				wr.lock.Unlock()
				wr.err = err
				return
			}
			wr.insert = append(wr.insert, time.Since(t0))
			if wr.rec.enabled() {
				wr.rec.add(span{ID: wr.rec.newID(), Name: "storage.insert", Start: wr.rec.at(t0), End: wr.rec.now()})
			}
		}
		wr.lock.Unlock()
		t0 := time.Now()
		if err := wr.c.Sync(); err != nil {
			wr.err = err
			return
		}
		wr.sync = append(wr.sync, time.Since(t0))
		if wr.rec.enabled() {
			wr.rec.add(span{ID: wr.rec.newID(), Name: "storage.sync", Start: wr.rec.at(t0), End: wr.rec.now()})
		}
		wr.inserted = append(wr.inserted, batch...)
	}
}

func meanDur(l latencies) time.Duration {
	if len(l) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range l {
		s += d
	}
	return s / time.Duration(len(l))
}

const (
	histAppend = "fxdist_pagestore_append_seconds"
	histSync   = "fxdist_pagestore_sync_seconds"
)

func runDurableRW(e *env) (*outcome, error) {
	p := durParams
	rng := rand.New(rand.NewSource(e.seed))
	recs := genRecords(p.Fields, p.Preload, rng)
	pool := drawPool(recs, p.Pool, rng, func(r *rand.Rand) []bool {
		spec := []bool{true, false, false, false}
		for i := 1; i < len(spec); i++ {
			spec[i] = r.Float64() < p.P
		}
		return spec
	})
	fillReference(newRefIndex(recs, len(p.Fields)), pool)
	pms := make([]fxdist.PartialMatch, len(pool))
	for k, q := range pool {
		pms[k] = pmOf(q)
	}
	precs := make([]fxdist.Record, len(recs))
	for i, r := range recs {
		precs[i] = fxdist.Record(r)
	}
	out := newOutcome()
	out.info["params"] = p
	out.info["mean_answer_records"] = meanAnswer(pool)

	var c *fxdist.Cluster
	var dir string
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.Close()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(e.dir, fmt.Sprintf("durable-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		schema, err := buildFile(p.Fields, p.Depths, nil)
		if err != nil {
			return nil, err
		}
		fsys, err := schema.FileSystem(p.M)
		if err != nil {
			return nil, err
		}
		fx, err := fxdist.NewFX(fsys)
		if err != nil {
			return nil, err
		}
		if c, err = fxdist.Open(fxdist.Config{Dir: dir, File: schema, Allocator: fx}); err != nil {
			return nil, err
		}
		if err := c.Durable().BulkInsert(precs); err != nil {
			return nil, err
		}
		for _, pm := range pms[:256] {
			if _, err := c.RetrieveContext(context.Background(), pm); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer c.Close()

	sizes := make([]respSize, 1)
	callSelf := make([]latencies, 1)
	// DurableCluster does not synchronise Insert with RetrieveContext
	// (the device logs' bucket index is a plain map), so reads and the
	// writer's batches take turns on a lock, as a caller must today.
	var lock sync.RWMutex
	read := retrieveOp(e, c, pool, pms, sizes, callSelf)
	op := func(w, k int) (time.Time, status) {
		lock.RLock()
		defer lock.RUnlock()
		return read(w, k)
	}
	next := perWorker(len(pool), 1, e.seed)
	wr := &writer{c: c.Durable(), lock: &lock, rng: rand.New(rand.NewSource(e.seed + 2)), rec: e.rec}

	probe := startRuntimeProbe()
	e.rec.setOn(e.trace)
	a := takeEngineSnap(c, fxdist.KindDurable)
	ha, hs := histOf(histAppend), histOf(histSync)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr.run(stop)
	}()
	main := runClosed(e.window, 1, next, op)
	close(stop)
	wg.Wait()
	writeWindow := main.Elapsed
	phases := []*phase{main}
	if e.trace {
		d := engineLayers(out, a, takeEngineSnap(c, fxdist.KindDurable), main.tally.ok)
		out.metrics["storage.read_fanout_us"] = d.meanUS(fxdist.StageFanout)
		out.metrics["engine.call_self_us"] = callSelfUS(callSelf)
		out.metrics["storage.insert_us"] = us(meanDur(wr.insert))
		out.metrics["storage.sync_ms"] = ms(meanDur(wr.sync))
		out.metrics["pagestore.append_us"] = histOf(histAppend).minus(ha).mean() * 1e6
		out.metrics["pagestore.sync_ms"] = histOf(histSync).minus(hs).mean() * 1e3
		overhead(out, e.rec)
		e.rec.setOn(false)
	}
	rd := probe.finish()
	if wr.err != nil {
		return nil, fmt.Errorf("writer: %w", wr.err)
	}
	out.metrics["write_rps"] = float64(len(wr.inserted)) / writeWindow.Seconds()

	// Check the writes: every writer key's records, after a final Sync.
	if err := c.Durable().Sync(); err != nil {
		return nil, err
	}
	ix := newRefIndex(wr.inserted, len(p.Fields))
	var check tally
	for v := 0; v < p.WriterKeys; v++ {
		q := pmQuery{Values: []string{fmt.Sprintf("wregion-%d", v), "", "", ""}}
		q.Want = ix.answer(q.Values)
		res, err := c.RetrieveContext(context.Background(), pmOf(q))
		switch {
		case err != nil:
			check.observe(0, 0, stError)
		case digestOf(res.Records) != q.Want:
			check.observe(0, 0, stWrong)
		default:
			check.observe(0, 0, stOK)
		}
	}
	phases = append(phases, &phase{tally: check})

	used, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out.metrics["space_amp"] = float64(used) / float64(userBytes(recs)+userBytes(wr.inserted))
	out.metrics["p50_ms"] = ms(main.p50())
	out.metrics["p99_ms"] = ms(main.p99Sliced())
	out.metrics["qps"] = main.throughputSliced()
	runtimeMetrics(out, rd, completed(phases)+len(wr.inserted))
	account(out, phases...)
	lrsInto(out, sizes)
	out.info["closed"] = phaseInfo(main)
	out.info["records_written"] = len(wr.inserted)
	out.info["write_check"] = map[string]int{"ok": check.ok, "errors": check.errs, "wrong": check.wrongs}
	return out, nil
}
