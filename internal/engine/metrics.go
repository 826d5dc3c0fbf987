package engine

import (
	"strconv"

	"fxdist/internal/audit"
	"fxdist/internal/obs"
	"fxdist/internal/telemetry"
)

// ClusterMetrics is the standard metrics sink for storage-style
// clusters, cached at construction. The cluster label separates the
// in-memory, durable (disk-backed) and replicated (failure-injecting)
// retrieval paths; metric names keep the fxdist_storage prefix the
// dashboards already scrape.
//
// The per-device counters accumulate qualified-bucket accesses over the
// cluster's whole lifetime; imbalance is their max/mean ratio — the
// paper's strict-optimality criterion (§5.2.1: response time is the
// slowest device) measured on real traffic. 1.0 means the allocator is
// spreading observed queries perfectly.
type ClusterMetrics struct {
	retrieves     *obs.Counter
	errors        *obs.Counter
	latency       *obs.Histogram
	deviceBuckets []*obs.Counter
	imbalance     *obs.Gauge
}

// NewClusterMetrics registers (or revives) the metric family for one
// cluster kind with m devices.
func NewClusterMetrics(cluster string, m int) *ClusterMetrics {
	r := obs.Default()
	cl := obs.L("cluster", cluster)
	cm := &ClusterMetrics{
		retrieves: r.Counter("fxdist_storage_retrieves_total",
			"Retrievals answered by this cluster kind.", cl),
		errors: r.Counter("fxdist_storage_retrieve_errors_total",
			"Retrievals that failed on this cluster kind.", cl),
		latency: r.Histogram("fxdist_storage_retrieve_seconds",
			"Wall-clock retrieval latency (all devices, merge included).", nil, cl),
		imbalance: r.Gauge("fxdist_storage_load_imbalance_ratio",
			"Max/mean of cumulative per-device qualified-bucket counts; 1.0 is a perfectly balanced declustering.", cl),
	}
	cm.deviceBuckets = make([]*obs.Counter, m)
	for dev := range cm.deviceBuckets {
		cm.deviceBuckets[dev] = r.Counter("fxdist_storage_device_qualified_buckets_total",
			"Qualified buckets accessed per device.", cl, obs.L("device", strconv.Itoa(dev)))
	}
	return cm
}

// Fold is the metrics' retrieval sink: it counts the retrieval and its
// failure, records its latency (with an exemplar when trace retention
// kept its tree) and, on success, folds the per-device bucket counts
// into the cumulative counters and refreshes the live imbalance gauge.
func (cm *ClusterMetrics) Fold(rec *obs.QueryRecord) {
	cm.retrieves.Inc()
	cm.latency.Observe(rec.Elapsed.Seconds())
	if rec.Retained {
		cm.latency.SetExemplar(rec.Elapsed.Seconds(), rec.TraceID)
	}
	if rec.Err != "" {
		cm.errors.Inc()
		return
	}
	for _, d := range rec.Devices {
		if d.Buckets > 0 {
			cm.deviceBuckets[d.Device].Add(uint64(d.Buckets))
		}
	}
	var sum, max uint64
	for _, c := range cm.deviceBuckets {
		v := c.Value()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return
	}
	mean := float64(sum) / float64(len(cm.deviceBuckets))
	cm.imbalance.Set(float64(max) / mean)
}

// Sinks returns the standard fold list for one backend, in the order
// the folds depend on: the strict-optimality audit, the cost profiler,
// the wide-event log (its keep decision lands in the record), trace
// retention on tracer (driven by that decision), the flight recorder,
// and the backend's latency metrics (whose exemplar points at the
// retained trace).
func Sinks(backend string, tracer *obs.Tracer, metrics Sink) []Sink {
	return []Sink{
		audit.For(backend),
		obs.CostProfilerFor(backend),
		telemetry.LogFor(backend),
		tracer,
		obs.FlightRecorderFor(backend),
		metrics,
	}
}
