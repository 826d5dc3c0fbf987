package telemetry

import (
	"errors"
	"strings"
	"testing"

	"fxdist/internal/obs"
)

// nodeRegistry builds one node's private registry: per-shape server
// request counters on its device, a latency histogram, an audit
// deviation gauge and plan-cache counters.
func nodeRegistry(dev string, shapeCounts map[string]uint64, latencies []float64, deviation float64, hits, misses uint64) *obs.Registry {
	r := obs.NewRegistry()
	d := obs.L("device", dev)
	for shape, n := range shapeCounts {
		r.Counter("fxdist_netdist_server_shape_requests_total", "per-shape requests", d, obs.L("shape", shape)).Add(n)
	}
	h := r.Histogram("fxdist_netdist_server_request_seconds", "latency", []float64{0.001, 0.01}, d)
	for _, v := range latencies {
		h.Observe(v)
	}
	r.Gauge("fxdist_audit_max_deviation_buckets", "deviation", obs.L("shape", "s*")).Set(deviation)
	r.Counter("fxdist_plancache_hit_total", "hits").Add(hits)
	r.Counter("fxdist_plancache_miss_total", "misses").Add(misses)
	return r
}

// wire round-trips a node snapshot through the stats-pull encoding.
func wire(t *testing.T, node string, r *obs.Registry) NodeStats {
	t.Helper()
	raw, err := EncodeNodeStats(LocalNodeStats(node, r))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeNodeStats(raw)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFederateTwoNodes(t *testing.T) {
	a := nodeRegistry("0", map[string]uint64{"s*": 3, "*s": 1}, []float64{0.0005, 0.005}, 0, 6, 2)
	b := nodeRegistry("1", map[string]uint64{"s*": 4}, []float64{0.05}, 2, 2, 0)
	f := NewFederator("fleet-test")
	f.ObserveNode("device-0", wire(t, "device-0", a), 0)
	f.ObserveNode("device-1", wire(t, "device-1", b), 0)
	rep := f.Report()

	if rep.Cluster != "fleet-test" || len(rep.Nodes) != 2 {
		t.Fatalf("report %q with %d nodes", rep.Cluster, len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if !n.Alive || n.Flagged || n.Pulls != 1 || n.Version == "" {
			t.Errorf("node row %+v, want alive, unflagged, one pull, versioned", n)
		}
	}
	if rep.Summary.Queries != 8 || rep.Summary.QueriesByShape["s*"] != 7 || rep.Summary.QueriesByShape["*s"] != 1 {
		t.Errorf("queries %d by shape %v, want 8 = s* 7 + *s 1", rep.Summary.Queries, rep.Summary.QueriesByShape)
	}
	if rep.Summary.WorstDiscrepancy != 2 || rep.Summary.WorstDiscrepancyNode != "device-1" || rep.Summary.WorstDiscrepancyShape != "s*" {
		t.Errorf("worst discrepancy %v on %s/%s, want 2 on device-1/s*",
			rep.Summary.WorstDiscrepancy, rep.Summary.WorstDiscrepancyNode, rep.Summary.WorstDiscrepancyShape)
	}
	if rep.Summary.PlanCacheHitRate != 0.8 {
		t.Errorf("plan-cache hit rate %v, want 8/10", rep.Summary.PlanCacheHitRate)
	}

	// The device label is dropped before merging, so the two nodes'
	// per-device series sum into one fleet series.
	var shapeS, hist *MetricSample
	for i := range rep.Merged {
		ms := &rep.Merged[i]
		if _, ok := ms.Labels["device"]; ok {
			t.Errorf("merged series %s keeps the device label", ms.Name)
		}
		switch {
		case ms.Name == "fxdist_netdist_server_shape_requests_total" && ms.Labels["shape"] == "s*":
			shapeS = ms
		case ms.Name == "fxdist_netdist_server_request_seconds":
			hist = ms
		}
	}
	if shapeS == nil || shapeS.Value != 7 {
		t.Errorf("merged s* counter %+v, want 7", shapeS)
	}
	if hist == nil || hist.Histogram == nil {
		t.Fatal("merged latency histogram missing")
	}
	if h := hist.Histogram; h.Count != 3 || h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("merged histogram count %d buckets %v, want 3 = 1+1+1", h.Count, h.Counts)
	}
	// Merging copies: the node's own snapshot is untouched.
	for _, ms := range wire(t, "device-0", a).Metrics {
		if ms.Histogram != nil && ms.Histogram.Count != 2 {
			t.Errorf("node snapshot histogram count %d after merge, want 2", ms.Histogram.Count)
		}
	}
}

func TestFederateFlagsFaultedNode(t *testing.T) {
	r := nodeRegistry("0", map[string]uint64{"s": 1}, nil, 0, 0, 0)
	f := NewFederator("fleet-flags")
	f.ObserveNode("device-0", wire(t, "device-0", r), 0)
	f.ObserveNode("device-0", wire(t, "device-0", r), 3) // coordinator saw 3 new errors
	row := f.Report().Nodes[0]
	if !row.Flagged || !strings.Contains(row.FlagReason, "3 new transport errors") || !row.Alive {
		t.Fatalf("row %+v, want alive but flagged for 3 new errors", row)
	}
	f.ObserveNode("device-0", wire(t, "device-0", r), 3) // no growth: cleared
	if row := f.Report().Nodes[0]; row.Flagged {
		t.Fatalf("row still flagged without error growth: %q", row.FlagReason)
	}
	f.ObserveFailure("device-0", errors.New("dial refused"), 3)
	row = f.Report().Nodes[0]
	if row.Alive || !row.Flagged || row.Failures != 1 || row.Err != "dial refused" {
		t.Fatalf("row after failed pull %+v, want dead, flagged, one failure", row)
	}
}
