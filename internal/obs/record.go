package obs

import "time"

// QueryRecord is the one description of a finished retrieval. The engine
// executor builds exactly one per retrieval and hands it, in order, to
// every sink — the optimality audit, the cost profiler, the wide-event
// log, trace retention, the flight recorder and the latency metrics —
// each of which folds it into its own state. Shape, |R(q)| and the
// strict bound ceil(|R(q)|/M) come from the retrieval's plan, so every
// sink judges the query against the same numbers.
//
// A sink that keeps a record keeps a copy of the struct; the slices it
// references are allocated per retrieval and never recycled, so a kept
// record stays valid however many queries follow. /debug/events and
// /debug/flight serve these records.
type QueryRecord struct {
	// Time is when the retrieval entered the executor.
	Time time.Time `json:"time"`
	// Backend is stamped by the sink that keeps the record.
	Backend string `json:"backend"`
	// Shape is the query-shape key ('s' per specified field, '*' per
	// unspecified one); empty when the query failed before planning.
	Shape string `json:"shape"`
	// Tenant is the caller attribution (a gateway tenant name), empty
	// for unattributed retrievals. See engine.ContextWithCaller.
	Tenant  string `json:"tenant,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
	// Elapsed is the whole-retrieval latency, plan included; the
	// top-level Stages partition it.
	Elapsed time.Duration `json:"elapsed_ns"`

	PlanCacheHit bool `json:"plan_cache_hit"`
	// RQ is |R(q)|; Bound is the paper's strict bound ceil(|R(q)|/M);
	// MaxDeviceBuckets the worst single device of this query.
	RQ               int  `json:"rq"`
	Bound            int  `json:"bound"`
	MaxDeviceBuckets int  `json:"max_device_buckets"`
	BoundViolation   bool `json:"bound_violation,omitempty"`

	// Slow is set by the event log when Elapsed exceeded the shape's SLO
	// target (recorded in SLOTarget).
	Slow      bool          `json:"slow,omitempty"`
	SLOTarget time.Duration `json:"slo_target_ns,omitempty"`

	// Error/partial manifest.
	Err           string  `json:"err,omitempty"`
	Partial       bool    `json:"partial,omitempty"`
	Coverage      float64 `json:"coverage,omitempty"`
	FailedDevices []int   `json:"failed_devices,omitempty"`

	// Devices details each device's bucket count vs the bound and scan
	// duration — the slowest entry is the query's critical path. Nil
	// when the retrieval was abandoned before every device answered.
	Devices []DeviceRecord `json:"devices,omitempty"`
	// Stages is the retrieval's cost breakdown (plan, fanout, merge,
	// audit, device.scan).
	Stages []StageSample `json:"stages,omitempty"`
	// Events is the root span's annotation log (retry, hedge and breaker
	// decisions, degraded merges, per-device replies).
	Events []SpanEvent `json:"events,omitempty"`

	// Keep records why the event log kept the query (error/slow/bound =
	// always-keep; head/sample = head sampling).
	Keep []string `json:"keep,omitempty"`
	// Retained reports that trace retention kept the query's trace tree,
	// so the latency metrics can attach an exemplar pointing at it.
	Retained bool `json:"-"`
}

// DeviceRecord is one device's share of a retrieval.
type DeviceRecord struct {
	Device  int           `json:"device"`
	Buckets int           `json:"buckets"`
	Scan    time.Duration `json:"scan_ns,omitempty"`
	Err     string        `json:"err,omitempty"`
}
