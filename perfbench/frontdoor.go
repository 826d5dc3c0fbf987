package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fxdist"
)

// front-door: a 3-field Zipf-skewed relation on M=8 device servers
// behind the gate, driven through two client connections (one per
// tenant).

var fdFields = []field{
	{Name: "part", Card: 2000, ZipfS: 1.2, ZipfV: 20},
	{Name: "supplier", Card: 400, ZipfS: 1.2, ZipfV: 10},
	{Name: "warehouse", Card: 64},
}

var fdParams = struct {
	Fields  []field `json:"fields"`
	Depths  []int   `json:"depths"`
	Records int     `json:"records"`
	M       int     `json:"m"`
	Pool    int     `json:"pool"`
	Workers int     `json:"workers"`
	LoRate  float64 `json:"lo_rate"`
	HiRate  float64 `json:"hi_rate"`
	Probes  int     `json:"knee_probes"`
	LimitMS float64 `json:"knee_p99_limit_ms"`
}{
	Fields: fdFields, Depths: []int{4, 3, 2}, Records: 60000, M: 8, Pool: 2048, Workers: 2,
	LoRate: 80, HiRate: 200, Probes: 4, LimitMS: float64(kneeLimit / time.Millisecond),
}

// kneeLimit is the p99 latency (and end-of-probe backlog drain) a knee
// probe must meet.
const kneeLimit = 100 * time.Millisecond

// fdInputs are the generated records and query pool.
type fdInputs struct {
	recs  [][]string
	pool  []pmQuery
	qmaps []map[string]string
}

// frontDoorInputs generates the relation and a pool over the seven
// shapes that specify at least one field; whole-file queries are left
// out so JSON encoding of the whole relation does not swamp the mix.
func frontDoorInputs(seed int64) fdInputs {
	rng := rand.New(rand.NewSource(seed))
	recs := genRecords(fdFields, fdParams.Records, rng)
	pool := drawPool(recs, fdParams.Pool, rng, func(r *rand.Rand) []bool {
		mask := 1 + r.Intn(7)
		return []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
	})
	return fdInputs{recs: recs, pool: pool}
}

func (in *fdInputs) reference() {
	fillReference(newRefIndex(in.recs, len(fdFields)), in.pool)
	in.qmaps = make([]map[string]string, len(in.pool))
	for k, q := range in.pool {
		in.qmaps[k] = q.asMap(fdFields)
	}
}

// meanAnswer is the mean reference answer size of the pool.
func meanAnswer(pool []pmQuery) float64 {
	total := 0
	for _, q := range pool {
		total += q.Want.Count
	}
	return float64(total) / float64(len(pool))
}

// setupFleet sets the fleet up setupReps times, keeping the last.
func setupFleet(e *env, in fdInputs, out *outcome) (*fleet, error) {
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		f, err = startFleet(fdFields, fdParams.Depths, fdParams.M, in.recs, fdParams.Workers, e.rec)
		if err != nil {
			return nil, err
		}
		if err := f.warm(in.qmaps); err != nil {
			f.close()
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	return f, nil
}

// fdOps builds the client operation: worker w sends through its own
// client connection and checks the answer.
func fdOps(e *env, f *fleet, in fdInputs, sizes []respSize, errs *errorLog) opFunc {
	return func(w, k int) (time.Time, status) {
		ctx := context.Background()
		traced := e.rec.sample()
		var s span
		if traced {
			s = span{ID: e.rec.newID(), Name: "client.retrieve", Start: e.rec.now()}
			ctx = withSpan(ctx, s.ID)
		}
		t0 := time.Now()
		res, err := f.clients[w].Retrieve(ctx, in.qmaps[k])
		end := time.Now()
		e.rec.served(traced, end.Sub(t0))
		if traced {
			s.End = e.rec.at(end)
			e.rec.add(s)
		}
		if err != nil {
			errs.note(err)
			return end, stError
		}
		if digestOf(res.Records) != in.pool[k].Want {
			return end, stWrong
		}
		sizes[w].observe(res.DeviceBuckets, res.LargestResponseSize)
		return end, stOK
	}
}

// cycler walks a seeded permutation of the pool.
func cycler(n int, rng *rand.Rand) func() int {
	perm := rng.Perm(n)
	i := 0
	return func() int {
		k := perm[i%n]
		i++
		return k
	}
}

// perWorker gives each closed-loop worker its own seeded walk of the
// pool.
func perWorker(n, workers int, seed int64) func(w int) int {
	nexts := make([]func() int, workers)
	for w := range nexts {
		nexts[w] = cycler(n, rand.New(rand.NewSource(seed+int64(w)+1)))
	}
	return func(w int) int { return nexts[w]() }
}

func runFrontDoor(e *env) (*outcome, error) {
	in := frontDoorInputs(e.seed)
	in.reference()
	out := newOutcome()
	out.info["params"] = fdParams
	out.info["mean_answer_records"] = meanAnswer(in.pool)
	f, err := setupFleet(e, in, out)
	if err != nil {
		return nil, err
	}
	defer f.close()

	w := fdParams.Workers
	sizes := make([]respSize, w)
	errs := &errorLog{}
	op := fdOps(e, f, in, sizes, errs)
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	next := cycler(len(in.pool), rng)
	open := func(rate float64, d time.Duration) *phase {
		return runOpen(rate, d, w, rng, next, op)
	}
	win := e.window

	var phases []*phase
	probe := startRuntimeProbe()
	if !e.trace {
		lo := open(fdParams.LoRate, win*80/100)
		closed := runClosed(win*20/100, w, perWorker(len(in.pool), w, e.seed), op)
		phases = append(phases, lo, closed)
		rd := probe.finish()
		out.metrics["p50_ms"] = ms(lo.p50())
		out.metrics["p99_ms"] = ms(lo.p99Sliced())
		out.metrics["qps"] = closed.throughputSliced()
		runtimeMetrics(out, rd, completed(phases))
		genLag(out, lo)
		out.info["lo"], out.info["closed"] = phaseInfo(lo), phaseInfo(closed)
	} else {
		e.rec.setOn(true)
		snap := takeLayerSnap(f)
		lo := open(fdParams.LoRate, win*35/100)
		hi := open(fdParams.HiRate, win*20/100)
		phases = append(phases, lo, hi)
		fleetLayers(out, snap, takeLayerSnap(f), completed(phases), e.rec)
		overhead(out, e.rec)
		e.rec.setOn(false)
		// The knee search runs last, untraced: it brackets the closed-loop
		// throughput of the two connections, the most an open loop can
		// sustain through them.
		closed := runClosed(win*10/100, w, perWorker(len(in.pool), w, e.seed), op)
		capacity := closed.throughput()
		probeDur := win * 15 / 100 / time.Duration(fdParams.Probes)
		var probes []map[string]any
		knee := kneeSearch(capacity/2, capacity*5/4, fdParams.Probes, kneeLimit.Seconds(), func(rate float64) float64 {
			p := open(rate, probeDur)
			phases = append(phases, p)
			fig := max(p.p99(), p.drain).Seconds()
			if p.tally.errs+p.tally.wrongs > 0 {
				fig = math.Inf(1)
			}
			probes = append(probes, map[string]any{"rate": rate, "p99_ms": ms(p.p99()), "drain_ms": ms(p.drain), "samples": len(p.tally.lat)})
			return fig
		})
		phases = append(phases, closed)
		// Last, traced again: the low rate while the cluster grows to
		// 16 devices and shrinks back once a second. Its latency against
		// lo's is the cost of bucket copies and dual reads under load.
		var resc *phase
		e.rec.setOn(true)
		err := withRescales(out, f, in, e.rec, func() { resc = open(fdParams.LoRate, win*20/100) })
		e.rec.setOn(false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, resc)
		rd := probe.finish()
		runtimeMetrics(out, rd, completed(phases))
		genLag(out, lo, hi, resc)
		out.metrics["rescale.p50_ms"] = ms(resc.p50())
		out.metrics["rescale.p99_ms"] = ms(resc.p99())
		out.metrics["p99_ms"] = ms(lo.p99Sliced())
		out.metrics["hi.p50_ms"] = ms(hi.p50())
		out.metrics["hi.p99_ms"] = ms(hi.p99())
		out.metrics["max_qps"] = knee
		out.info["lo"], out.info["hi"] = phaseInfo(lo), phaseInfo(hi)
		out.info["knee_probes"] = probes
	}
	account(out, phases...)
	lrsInto(out, sizes)
	errs.into(out)
	return out, nil
}

// completed counts completed operations over phases.
func completed(phases []*phase) int {
	n := 0
	for _, p := range phases {
		n += p.tally.ok
	}
	return n
}

// lrsInto records the paper's response-size figures.
func lrsInto(out *outcome, sizes []respSize) {
	var all respSize
	for _, s := range sizes {
		all.merge(s)
	}
	out.metrics["lrs_ratio"] = all.ratio()
	out.metrics["decluster.strict_share"] = all.strictShare()
	out.metrics["decluster.rq_mean"] = all.rqMean()
}

// Rescales: at the end of front-door's traced run the fleet serves its
// low rate while M grows 8 -> 16 onto fresh rescale-target servers and
// shrinks back, over and over, through Cluster.Rescale. The rescales
// keep no journal: the journal is persist's, which durable-rw measures,
// and its fsyncs would tie the latency to the disk.

type rescaleRun struct {
	total, copy time.Duration
	status      fxdist.RescaleStatus
}

// rescaler drives paced grow/shrink rescales of f's cluster until stop
// is closed, finishing the one in flight.
type rescaler struct {
	f     *fleet
	alloc fxdist.GroupAllocator
	addrs []string
	runs  []rescaleRun
	rec   *recorder
	// verify are self-check queries for a rescale left without load.
	verify []fxdist.PartialMatch
}

// rescaleEvery paces rescale starts, so the migration work offered per
// second is fixed instead of taking whatever CPU the queries leave.
const rescaleEvery = time.Second

// loop starts a rescale every rescaleEvery (or as soon as the previous
// one finishes, if it ran longer) until stop closes.
func (r *rescaler) loop(stop <-chan struct{}) error {
	due := time.Now()
	for {
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(due)):
		}
		if err := r.step(stop); err != nil {
			return err
		}
		due = due.Add(rescaleEvery)
	}
}

// step performs one rescale: grow when at the base M, shrink otherwise.
// Cutover waits for audited queries on the new epoch; once the load has
// stopped, the rescale pumps its own with Rescale.Verify.
func (r *rescaler) step(stop <-chan struct{}) error {
	spec, err := fxdist.DescribeAllocator(r.alloc)
	if err != nil {
		return err
	}
	newM := spec.M * 2
	if spec.M > fdParams.M {
		newM = spec.M / 2
	}
	newSpec, err := spec.Rescaled(newM)
	if err != nil {
		return err
	}
	addrs := append([]string(nil), r.addrs[:min(newM, spec.M)]...)
	var targets []*fxdist.DeviceServer
	if newM > spec.M {
		epoch := r.f.cluster.Coordinator().Epoch() + 1
		for dev := spec.M; dev < newM; dev++ {
			srv, err := fxdist.NewRescaleTargetServer(dev, newSpec, epoch)
			if err != nil {
				return err
			}
			addr, err := r.f.serveDevice(srv)
			if err != nil {
				return err
			}
			targets = append(targets, srv)
			addrs = append(addrs, addr)
		}
	}
	var s span
	if r.rec.enabled() {
		s = span{ID: r.rec.newID(), Name: "rebalance.rescale", Start: r.rec.now()}
	}
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resc, err := r.f.cluster.Rescale(ctx, fxdist.RescaleConfig{
		Addrs:     addrs,
		NewM:      newM,
		Allocator: r.alloc,
	})
	if err != nil {
		return fmt.Errorf("rescale %d -> %d: %w", spec.M, newM, err)
	}
	var copyDone time.Duration
	for !resc.Done() {
		phase := resc.Status().Phase
		if copyDone == 0 && phase != "copying" && phase != "planning" {
			copyDone = time.Since(t0)
		}
		select {
		case <-stop:
			if phase == "dual-read" {
				if err := resc.Verify(ctx, r.verify); err != nil {
					return fmt.Errorf("rescale verify: %w", err)
				}
			}
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := resc.Wait(); err != nil {
		return fmt.Errorf("rescale %d -> %d: %w (status %+v)", spec.M, newM, err, resc.Status())
	}
	total := time.Since(t0)
	if copyDone == 0 {
		copyDone = total
	}
	if r.rec.enabled() {
		s.End = r.rec.now()
		r.rec.add(s)
	}
	r.runs = append(r.runs, rescaleRun{total: total, copy: copyDone, status: resc.Status()})
	if newM < spec.M {
		// The dropped half no longer serves; its servers are the last
		// ones started, close them.
		r.f.dropServers(spec.M - newM)
	}
	if r.alloc, err = fxdist.BuildAllocator(newSpec); err != nil {
		return err
	}
	r.addrs = addrs
	return nil
}

// withRescales runs load while a rescaler grows and shrinks f's cluster,
// and records the rebalance figures. A rescale dual-read mismatch counts
// as a wrong answer.
func withRescales(out *outcome, f *fleet, in fdInputs, rec *recorder, load func()) error {
	rs := &rescaler{f: f, alloc: f.alloc, addrs: f.addrs, rec: rec}
	for _, q := range in.pool[:8] {
		rs.verify = append(rs.verify, pmOf(q))
	}
	// The rescaler stops, and is waited for, before the fleet closes.
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- rs.loop(stop) }()
	stopRescaler := sync.OnceValue(func() error {
		close(stop)
		return <-errc
	})
	defer stopRescaler()
	load()
	if err := stopRescaler(); err != nil {
		return err
	}
	if len(rs.runs) == 0 {
		return fmt.Errorf("no rescale completed in the window")
	}
	var totals, copies []float64
	var moves, dual, mism, oldWins, wins float64
	for _, r := range rs.runs {
		totals = append(totals, r.total.Seconds())
		copies = append(copies, r.copy.Seconds())
		moves += float64(r.status.TotalMoves)
		dual += float64(r.status.DualReads.Started)
		mism += float64(r.status.DualReads.Mismatches)
		oldWins += float64(r.status.DualReads.OldWins)
		wins += float64(r.status.DualReads.OldWins + r.status.DualReads.NewWins)
	}
	n := float64(len(rs.runs))
	out.metrics["rescale_s"] = medianFloat(totals)
	out.metrics["rebalance.copy_s"] = medianFloat(copies)
	out.metrics["rebalance.moves"] = moves / n
	out.metrics["rebalance.dual_reads"] = dual / n
	out.metrics["rebalance.mismatches"] = mism
	if wins > 0 {
		out.metrics["rebalance.old_win_share"] = oldWins / wins
	}
	out.wrong += int(mism)
	out.info["rescales"] = len(rs.runs)
	out.info["rescale_s_each"] = totals
	return nil
}
