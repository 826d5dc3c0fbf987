package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
)

// Sink folds finished retrievals. The executor builds one
// obs.QueryRecord per retrieval and hands it to every sink of its
// Config, in order; Fold runs synchronously on the retrieval path and
// must be cheap. A sink that keeps the record keeps a copy of the
// struct, never the pointer.
type Sink interface {
	Fold(rec *obs.QueryRecord)
}

// RetryPolicy decides what to do when a device's scan fails: return a
// replacement Device to re-ask (e.g. the ring successor holding the
// failed device's backup partition), or nil to let the failure stand.
// The policy runs on the worker that observed the failure, so rerouting
// happens immediately rather than in a second fan-out wave.
type RetryPolicy func(ctx context.Context, dev int, err error) Device

// Config assembles an Executor.
type Config struct {
	// Schema hashes value-level queries into bucket queries.
	Schema *mkhash.File
	// FS, when non-zero, validates bucket queries against the declustered
	// file system before fan-out. Backends that only know the schema (the
	// TCP coordinator validates server-side) leave it zero.
	FS decluster.FileSystem
	// Devices are the cluster's parallel devices, in device order.
	Devices []Device
	// Model prices each device's work; the zero model reports zero times.
	Model CostModel
	// Tracer, if set, opens a span per retrieval.
	Tracer *obs.Tracer
	// Span names the tracer spans (e.g. "storage.retrieve").
	Span string
	// Workers bounds the worker pool; 0 means max(len(Devices), GOMAXPROCS).
	Workers int
	// Retry, if set, is consulted on every device failure. It is the
	// legacy single-shot reroute hook; when Resilience.Policies is
	// non-empty the policy chain takes over and Retry is ignored.
	Retry RetryPolicy
	// Resilience is the composable failure-handling configuration:
	// policy chain, hedger, graceful degradation. See Resilience.
	Resilience Resilience
	// Alloc, when set, is the group allocator behind Devices; it lets the
	// plan cache compile per-device qualified-bucket enumerations that
	// devices use instead of re-walking the inverse mapper.
	Alloc decluster.GroupAllocator
	// Plans, when set, caches compiled plans per (allocator identity,
	// query shape): a hit skips validation, |R(q)| and bound computation,
	// and (with Alloc set) the per-device enumeration. Nil or disabled
	// runs the uncached path.
	Plans *plancache.Cache
	// Sinks fold every finished retrieval's record, in order; a sink
	// may read what an earlier one wrote into it (the event log's keep
	// decision drives the tracer's retention, which the metrics'
	// exemplar reads). Sinks builds the standard list. With no sinks the
	// executor skips cost attribution and builds no record.
	Sinks []Sink
	// NoPool disables the hot-path buffer pools for this executor: all
	// fan-out scratch, hit frames and merged record slices come fresh
	// from the allocator, exactly the pre-pooling behaviour. The escape
	// hatch behind WithoutMemPool.
	NoPool bool
	// ArenaResults leases Result.Records (and any device-held decode
	// arenas) from the pools instead of copying out: zero-copy results
	// the caller must hand back with Result.Release. Ignored when NoPool
	// is set.
	ArenaResults bool
}

// Executor is the single retrieval code path shared by every backend:
// plan (validate once) → bounded fan-out over Devices → merge under the
// cost model. Executors are cheap and safe for concurrent use.
type Executor struct {
	schema *mkhash.File
	fs     decluster.FileSystem
	devs   []Device
	model  CostModel
	sinks  []Sink
	tracer *obs.Tracer
	span   string
	retry  RetryPolicy
	res    Resilience
	alloc  decluster.GroupAllocator
	plans  *plancache.Cache
	noPool bool
	arena  bool
	pool   *pool
}

// New builds an Executor from cfg.
func New(cfg Config) (*Executor, error) {
	if cfg.Schema == nil {
		return nil, errors.New("engine: config needs a schema")
	}
	if len(cfg.Devices) == 0 {
		return nil, errors.New("engine: config needs at least one device")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = len(cfg.Devices)
		if n := runtime.GOMAXPROCS(0); n > workers {
			workers = n
		}
	}
	return &Executor{
		schema: cfg.Schema,
		fs:     cfg.FS,
		devs:   cfg.Devices,
		model:  cfg.Model,
		sinks:  cfg.Sinks,
		tracer: cfg.Tracer,
		span:   cfg.Span,
		retry:  cfg.Retry,
		res:    cfg.Resilience,
		alloc:  cfg.Alloc,
		plans:  cfg.Plans,
		noPool: cfg.NoPool,
		arena:  cfg.ArenaResults,
		pool:   newPool(workers),
	}, nil
}

// Derive returns a copy of the executor with a different span name and
// retry policy, sharing the devices and worker pool. Backends use it to
// offer plain and failover retrieval over the same machinery.
func (e *Executor) Derive(span string, retry RetryPolicy) *Executor {
	d := *e
	d.span = span
	d.retry = retry
	return &d
}

// DeriveResilience returns a copy of the executor running under the
// given resilience configuration (policy chain, hedger, degraded mode),
// sharing the devices and worker pool. The legacy RetryPolicy is
// dropped from the copy — the chain subsumes it.
func (e *Executor) DeriveResilience(span string, r Resilience) *Executor {
	d := *e
	d.span = span
	d.retry = nil
	d.res = r
	return &d
}

// M returns the device count.
func (e *Executor) M() int { return len(e.devs) }

// Plans returns the executor's plan cache, nil when uncached.
func (e *Executor) Plans() *plancache.Cache { return e.plans }

// spanKey carries the retrieval's trace span through the context so that
// devices (e.g. the remote device) can attach protocol events to it.
type spanKey struct{}

// ContextWithSpan returns ctx carrying span.
func ContextWithSpan(ctx context.Context, span *obs.Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns the retrieval span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *obs.Span {
	span, _ := ctx.Value(spanKey{}).(*obs.Span)
	return span
}

// lower hashes the value-level query into bucket coordinates. Range
// validation happens once per shape inside planFor, not per retrieval.
func (e *Executor) lower(pm mkhash.PartialMatch) (query.Query, error) {
	return e.schema.BucketQuery(pm)
}

// numQualified computes |R(q)|: the product of the unspecified field
// domain sizes. The validated file system is used when configured;
// backends that only know the schema (the TCP coordinator) fall back to
// its current directory sizes. With the plan cache enabled this runs
// once per shape and the result rides the cached plan, so the
// coordinator path and the auditor always agree on the strict bound —
// previously it was recomputed per retrieval and could drift as the
// schema's directory grew mid-workload.
func (e *Executor) numQualified(q query.Query) int {
	if e.fs.M > 0 {
		return q.NumQualified(e.fs)
	}
	sizes := e.schema.Sizes()
	n := 1
	for i, v := range q.Spec {
		if v == query.Unspecified && i < len(sizes) {
			n *= sizes[i]
		}
	}
	return n
}

// compile builds the plan for q's shape: validate once, then (with an
// allocator configured) compile the per-device tuple groups, otherwise
// a summary plan carrying only |R(q)| and the bound.
func (e *Executor) compile(q query.Query) (*plancache.Plan, error) {
	if e.fs.M > 0 {
		if err := q.Validate(e.fs); err != nil {
			return nil, err
		}
	}
	if e.alloc != nil {
		maxTuples := plancache.DefaultMaxTuples
		if e.plans != nil {
			maxTuples = e.plans.MaxTuples()
		}
		return plancache.Compile(e.alloc, q, maxTuples), nil
	}
	return plancache.Summary(q, e.numQualified(q), len(e.devs)), nil
}

// planFor returns q's retrieval plan, from the cache when enabled, and
// whether it was a cache hit. A cache hit skips validation entirely —
// sound because engine queries come from Schema.BucketQuery, which only
// produces in-range values, and the cache key's allocator identity pins
// the plan to this executor's allocator.
func (e *Executor) planFor(q query.Query) (*plancache.Plan, bool, error) {
	if e.plans != nil && e.plans.Enabled() {
		var owner any = e.schema
		if e.alloc != nil {
			owner = e.alloc
		}
		key := plancache.Key{Owner: plancache.IdentityOf(owner), Shape: q.Shape()}
		p, hit, err := e.plans.Get(key, func() (*plancache.Plan, error) { return e.compile(q) })
		return p, hit, err
	}
	// Uncached path: per-retrieval validation and |R(q)|, exactly the
	// pre-cache behaviour; the summary plan never reaches devices.
	if e.fs.M > 0 {
		if err := q.Validate(e.fs); err != nil {
			return nil, false, err
		}
	}
	return plancache.Summary(q, e.numQualified(q), len(e.devs)), false, nil
}

// callerKey carries the retrieval's caller attribution (a gateway
// tenant name, a batch job id, ...) through the context; callersKey
// carries a batch-aligned slice for coalesced multi-tenant batches.
type callerKey struct{}
type callersKey struct{}

// ContextWithCaller returns ctx attributing retrievals to caller; the
// wide-event query log records it as the event's tenant.
func ContextWithCaller(ctx context.Context, caller string) context.Context {
	if caller == "" {
		return ctx
	}
	return context.WithValue(ctx, callerKey{}, caller)
}

// CallerFromContext returns the caller attribution carried by ctx, or
// "".
func CallerFromContext(ctx context.Context) string {
	c, _ := ctx.Value(callerKey{}).(string)
	return c
}

// ContextWithCallers returns ctx attributing the queries of a batch
// retrieval to callers, index-aligned with the batch: query i of a
// RetrieveBatch under this context is attributed to callers[i]. This is
// how a coalescing gateway drives one engine batch on behalf of many
// tenants and still gets per-tenant wide events.
func ContextWithCallers(ctx context.Context, callers []string) context.Context {
	if len(callers) == 0 {
		return ctx
	}
	return context.WithValue(ctx, callersKey{}, callers)
}

// CallersFromContext returns the batch-aligned caller attributions
// carried by ctx, or nil.
func CallersFromContext(ctx context.Context) []string {
	c, _ := ctx.Value(callersKey{}).([]string)
	return c
}

// planKey carries the retrieval's compiled plan through the context so
// device adapters can enumerate their qualified buckets from the cached
// tuple groups instead of re-walking the inverse mapper.
type planKey struct{}

// ContextWithPlan returns ctx carrying p (only tuple-carrying plans are
// attached).
func ContextWithPlan(ctx context.Context, p *plancache.Plan) context.Context {
	if p == nil || !p.Ready() {
		return ctx
	}
	return context.WithValue(ctx, planKey{}, p)
}

// PlanFromContext returns the compiled plan carried by ctx, or nil.
func PlanFromContext(ctx context.Context) *plancache.Plan {
	p, _ := ctx.Value(planKey{}).(*plancache.Plan)
	return p
}

// call is one retrieval: its plan, per-device answer slots plus an
// atomic countdown that closes done when the last device task finishes,
// and the record the sinks fold. Waiters that give up early (context
// cancelled) simply abandon the call; the remaining tasks write into the
// call's private slices and exit.
type call struct {
	exec    *Executor       // the executor that launched the fan-out
	ctx     context.Context // fan-out context: caller's, plus span and plan
	started time.Time       // retrieval entry, plan included
	span    *obs.Span
	q       query.Query
	pm      mkhash.PartialMatch
	plan    *plancache.Plan // nil when planning failed
	planHit bool
	caller  string // attribution for the wide-event query log
	answers []Answer
	errs    []error
	pending atomic.Int64
	done    chan struct{}

	// Cost attribution, on when the executor has sinks (instr): mark and
	// lastStamp walk the alloc counter and clock from stage boundary to
	// stage boundary, stages collects the closed stages and devs each
	// device's scan time. Both are allocated per call and handed to the
	// record, so a kept record never pins the call (or its plan).
	instr     bool
	mark      obs.AllocStat
	lastStamp time.Time
	stages    []obs.StageSample
	devs      []obs.DeviceRecord
	rec       obs.QueryRecord
}

// settled reports whether every device task has finished. Observing the
// closed done channel is the happens-before edge that makes the
// per-device slices (answers, errs, devs) safe to read; an abandoned
// call (waiter cancelled, stragglers still writing) or one that never
// launched is not settled and its per-device state must not be touched.
func (c *call) settled() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stamp closes one stage: wall time and alloc delta — heap and
// pool-recycled traffic both — since the previous boundary. No-op on
// uninstrumented calls.
func (c *call) stamp(stage string) {
	if !c.instr {
		return
	}
	now := time.Now()
	a := obs.ReadAllocs()
	d := a.Sub(c.mark)
	c.stages = append(c.stages, obs.StageSample{
		Stage: stage, Wall: now.Sub(c.lastStamp),
		Bytes: d.Bytes, Objects: d.Objects,
		RecycledBytes: d.RecycledBytes, RecycledSlabs: d.RecycledSlabs,
	})
	c.mark, c.lastStamp = a, now
}

// start opens one retrieval: it lowers and plans pm and closes the plan
// stage. The call comes back even when planning failed, so finish still
// counts the failure.
func (e *Executor) start(pm mkhash.PartialMatch, caller string) (*call, error) {
	c := &call{started: time.Now(), pm: pm, caller: caller, instr: len(e.sinks) > 0}
	if c.instr {
		c.lastStamp = c.started
		c.mark = obs.ReadAllocs()
		c.stages = make([]obs.StageSample, 0, 5)
	}
	q, err := e.lower(pm)
	if err != nil {
		return c, err
	}
	plan, hit, err := e.planFor(q)
	if err != nil {
		return c, err
	}
	c.q, c.plan, c.planHit = q, plan, hit
	c.stamp(obs.StagePlan)
	return c, nil
}

// launch starts the fan-out for a planned call and returns without
// waiting: every device's scan is queued on the shared pool as a typed
// task. The plan's tuple groups (when compiled) travel to the devices
// via the context, which the call carries.
func (e *Executor) launch(ctx context.Context, c *call) {
	m := len(e.devs)
	c.answers = e.answersP().Get(m)
	c.errs = e.errsP().Get(m)
	c.done = make(chan struct{})
	if c.instr {
		c.devs = make([]obs.DeviceRecord, m)
	}
	if e.tracer != nil && e.span != "" {
		c.span = e.tracer.Start(e.span)
	}
	c.pending.Store(int64(m))
	ctx = ContextWithSpan(ctx, c.span)
	c.ctx = ContextWithPlan(ctx, c.plan)
	c.exec = e
	for dev := 0; dev < m; dev++ {
		e.pool.submit(task{c: c, dev: dev})
	}
}

// runTask scans one device for c on a pool worker and counts the task
// down, closing done after the last one.
func (e *Executor) runTask(c *call, dev int) {
	defer func() {
		if c.pending.Add(-1) == 0 {
			close(c.done)
		}
	}()
	ctx := c.ctx
	if err := ctx.Err(); err != nil {
		c.errs[dev] = err
		return
	}
	if c.instr {
		start := time.Now()
		c.answers[dev], c.errs[dev] = e.scanDevice(ctx, dev, c.q, c.pm)
		c.devs[dev].Scan = time.Since(start)
		return
	}
	c.answers[dev], c.errs[dev] = e.scanDevice(ctx, dev, c.q, c.pm)
}

// wait blocks until every device task finished or ctx is cancelled, then
// merges. On cancellation it returns promptly with ctx's error; straggler
// tasks keep draining in the background into the abandoned call and exit
// on their next context check.
func (e *Executor) wait(ctx context.Context, c *call) (Result, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		c.stamp(obs.StageFanout)
		c.stamp(obs.StageMerge)
		return Result{}, ctx.Err()
	}
	c.stamp(obs.StageFanout)
	res, err := e.consolidate(ctx, c)
	c.stamp(obs.StageMerge)
	return res, err
}

// consolidate turns the call's per-device answers into one Result:
// failure triage, graceful degradation, or the plain merge.
func (e *Executor) consolidate(ctx context.Context, c *call) (Result, error) {
	var failures []error
	for dev, err := range c.errs {
		if err != nil {
			failures = append(failures, &DeviceFailure{Device: dev, Err: err})
		}
	}
	if len(failures) > 0 {
		if e.res.Partial && len(failures) < len(c.errs) && ctx.Err() == nil {
			return e.degrade(c)
		}
		e.discardAnswers(c.answers)
		return Result{}, errors.Join(failures...)
	}
	return e.merge(c.answers, nil), nil
}

// discardAnswers recycles the hit frames and arena leases of answers
// that will never be merged (a retrieval failed outright after some
// devices had already answered). Only called once every device task has
// finished — never on an abandoned call.
func (e *Executor) discardAnswers(answers []Answer) {
	for i := range answers {
		a := &answers[i]
		if a.Release != nil {
			a.Release()
			a.Release = nil
		}
		e.hitsP().Put(a.Hits)
		a.Hits = nil
	}
}

// merge folds per-device answers into a Result under the cost model;
// failed[dev], when non-nil, marks devices whose answers are skipped.
//
// Records consolidate in one pass into a single exactly-sized slice —
// sized by summing the per-device hit counts first, so the old
// append-and-regrow copying (the cost profiler's biggest byte line) is
// gone. In arena mode the slice is a pooled slab and the result carries
// a lease; otherwise it is a fresh caller-owned allocation. Either way
// the per-device hit frames are drained back to the pool, and any
// device-held arena releases fold into the lease.
func (e *Executor) merge(answers []Answer, failed map[int]error) Result {
	m := len(answers)
	res := Result{
		DeviceBuckets: make([]int, m),
		DeviceRecords: make([]int, m),
		DeviceTime:    make([]time.Duration, m),
	}
	total := 0
	for dev := range answers {
		a := &answers[dev]
		if a.Idle || failed[dev] != nil {
			continue
		}
		res.DeviceBuckets[dev] = a.Buckets
		res.DeviceRecords[dev] = a.Records
		res.DeviceTime[dev] = e.model.DeviceTime(a.Buckets, a.Records)
		total += len(a.Hits)
	}
	arena := e.arenaOn()
	if arena {
		res.Records = recsPool.Get(total)[:0]
	} else if total > 0 {
		res.Records = make([]mkhash.Record, 0, total)
	}
	var rels []func()
	for dev := range answers {
		a := &answers[dev]
		if a.Idle || failed[dev] != nil {
			// A failed device's answer is zero by convention; discard
			// defensively in case an adapter returned one anyway.
			e.discardAnswers(answers[dev : dev+1])
			continue
		}
		res.Records = append(res.Records, a.Hits...)
		e.hitsP().Put(a.Hits)
		a.Hits = nil
		if a.Release != nil {
			rels = append(rels, a.Release)
			a.Release = nil
		}
	}
	if arena || len(rels) > 0 {
		recs := res.Records
		res.lease = NewLease(func() {
			if arena {
				recsPool.Put(recs)
			}
			for _, f := range rels {
				f()
			}
		})
	}
	res.Response, res.TotalWork, res.LargestResponseSize = AccumulateCost(res.DeviceTime, res.DeviceBuckets)
	return res
}

// degrade builds the graceful-degradation answer for a partially failed
// fan-out: the merged result of the devices that answered, plus a
// *PartialError carrying the per-device error manifest and the fraction
// of |R(q)| the surviving devices covered.
func (e *Executor) degrade(c *call) (Result, error) {
	failed := make(map[int]error)
	failedDevs := make([]int, 0, len(c.errs))
	for dev, err := range c.errs {
		if err != nil {
			failed[dev] = err
			failedDevs = append(failedDevs, dev)
		}
	}
	sort.Ints(failedDevs)
	res := e.merge(c.answers, failed)
	covered := 0
	for _, b := range res.DeviceBuckets {
		covered += b
	}
	coverage := 1.0
	if rq := c.plan.RQ; rq > 0 {
		coverage = float64(covered) / float64(rq)
		if coverage > 1 {
			coverage = 1
		}
	}
	if c.span != nil {
		c.span.Event(fmt.Sprintf("degraded: %d device(s) failed, coverage %.3f", len(failed), coverage))
	}
	if e.res.OnPartial != nil {
		e.res.OnPartial(coverage, failedDevs)
	}
	perr := &PartialError{Res: res, Failed: failed, Coverage: coverage}
	return res, perr
}

// finish closes the call's span and folds the retrieval's record into
// every sink.
func (e *Executor) finish(c *call, err error) {
	if c.span != nil {
		if err != nil {
			c.span.Event("error: " + err.Error())
		}
		c.span.End()
	}
	if !c.instr {
		return
	}
	rec := c.record(err)
	for _, s := range e.sinks {
		s.Fold(rec)
	}
}

// record builds the retrieval's one QueryRecord. It closes the audit
// stage, takes shape, |R(q)| and the strict bound from the plan — which
// computed them once per shape — and renders the bound verdict from the
// per-device answers. A device that failed is credited no buckets, as
// in the merge. A retrieval that failed before planning carries no
// shape, so only the latency and error folds count it; an abandoned
// call's per-device slices are left alone (stragglers may still be
// writing them).
func (c *call) record(err error) *obs.QueryRecord {
	rec := &c.rec
	rec.Time, rec.Tenant = c.started, c.caller
	if err != nil {
		rec.Err = err.Error()
		var pe *PartialError
		if errors.As(err, &pe) {
			rec.Partial = true
			rec.Coverage = pe.Coverage
			for dev := range pe.Failed {
				rec.FailedDevices = append(rec.FailedDevices, dev)
			}
			sort.Ints(rec.FailedDevices)
		}
	}
	if c.plan == nil {
		rec.Elapsed = time.Since(c.started)
		return rec
	}
	c.stamp(obs.StageAudit)
	rec.Elapsed = c.lastStamp.Sub(c.started)
	rec.Shape, rec.RQ, rec.Bound, rec.PlanCacheHit = c.plan.Shape, c.plan.RQ, c.plan.Bound, c.planHit
	rec.TraceID = c.span.Trace()
	rec.Events = c.span.Snapshot().Events
	var scan time.Duration
	if c.settled() {
		for dev := range c.devs {
			d := &c.devs[dev]
			d.Device = dev
			if err := c.errs[dev]; err != nil {
				d.Err = err.Error()
			} else {
				d.Buckets = c.answers[dev].Buckets
			}
			rec.MaxDeviceBuckets = max(rec.MaxDeviceBuckets, d.Buckets)
			scan += d.Scan
		}
		rec.Devices = c.devs
	}
	rec.BoundViolation = rec.Bound > 0 && rec.MaxDeviceBuckets > rec.Bound
	c.stages = append(c.stages, obs.StageSample{Stage: obs.StageDeviceScan, Wall: scan})
	rec.Stages = c.stages
	return rec
}

// seal stamps the call's trace ID and stage breakdown onto the result
// and, on failure, wraps the error so log lines carry the trace ID.
func (c *call) seal(res Result, err error) (Result, error) {
	tid := c.span.Trace()
	res.TraceID = tid
	res.Stages = c.rec.Stages
	if err != nil {
		if pe, ok := err.(*PartialError); ok {
			pe.Res.TraceID = tid
		}
		if tid != 0 {
			err = &TracedError{TraceID: tid, Err: err}
		}
	}
	return res, err
}

// recycle returns the call's fan-out scratch to the pools — but only
// when every device task has finished. An abandoned call (the waiter
// gave up on context cancellation) may still have straggler tasks
// writing into answers/errs; its scratch is left to the garbage
// collector, which is safe, just unrecycled.
func (e *Executor) recycle(c *call) {
	if !c.settled() {
		return
	}
	e.answersP().Put(c.answers)
	c.answers = nil
	e.errsP().Put(c.errs)
	c.errs = nil
}

// Retrieve answers one value-level partial match query: validate once,
// fan out every device's inverse-mapped scan on the bounded pool, merge
// under the cost model. Cancelling ctx returns promptly with its error.
func (e *Executor) Retrieve(ctx context.Context, pm mkhash.PartialMatch) (Result, error) {
	c, err := e.start(pm, CallerFromContext(ctx))
	var res Result
	if err == nil {
		e.launch(ctx, c)
		res, err = e.wait(ctx, c)
	}
	e.finish(c, err)
	res, err = c.seal(res, err)
	e.recycle(c)
	return res, err
}

// RetrieveBatch answers a batch of queries over the shared worker pool:
// every query's fan-out is launched up front, so devices pipeline across
// queries instead of idling at per-query barriers. Each query gets its
// own trace span and record. Queries sharing a shape are deduped
// through the plan cache: the first occurrence compiles, the rest reuse
// its plan. The returned slice always has one Result per query; queries
// that failed have a zero Result and contribute a "query %d" error to
// the joined error.
func (e *Executor) RetrieveBatch(ctx context.Context, pms []mkhash.PartialMatch) ([]Result, error) {
	results := make([]Result, len(pms))
	// Batch-internal scratch recycles across calls: the per-query error
	// and call-handle slices come from the pools, and each finished
	// query's fan-out scratch goes back before the next one completes.
	errs := e.errsP().Get(len(pms))
	calls := e.callsP().Get(len(pms))
	callers := CallersFromContext(ctx)
	defCaller := CallerFromContext(ctx)
	for i, pm := range pms {
		caller := defCaller
		if i < len(callers) {
			caller = callers[i]
		}
		c, err := e.start(pm, caller)
		if err != nil {
			errs[i] = err
			e.finish(c, err)
			continue
		}
		e.launch(ctx, c)
		calls[i] = c
	}
	for i, c := range calls {
		if c == nil {
			continue
		}
		res, err := e.wait(ctx, c)
		e.finish(c, err)
		results[i], errs[i] = c.seal(res, err)
		e.recycle(c)
	}
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("query %d: %w", i, err))
		}
	}
	e.errsP().Put(errs)
	e.callsP().Put(calls)
	if len(joined) > 0 {
		return results, errors.Join(joined...)
	}
	return results, nil
}
