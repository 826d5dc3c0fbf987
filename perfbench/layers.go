package main

import (
	"fxdist"
	"fxdist/internal/gate"
)

// Per-layer figures from the program's public reports, as deltas over
// the traced window.

// engineSnap is the engine's view: the backend kind's cost profile and
// the cluster's plan cache.
type engineSnap struct {
	cost stageTotals
	plan fxdist.PlanCacheStats
}

func takeEngineSnap(c *fxdist.Cluster, kinds ...string) engineSnap {
	return engineSnap{cost: costOf(kinds...), plan: c.PlanCache()}
}

// engineLayers records the engine and plan-cache metrics; ops is the
// number of completed operations in the window.
func engineLayers(out *outcome, a, b engineSnap, ops int) stageTotals {
	d := b.cost.minus(a.cost)
	top := []string{fxdist.StagePlan, fxdist.StageFanout, fxdist.StageMerge, fxdist.StageAudit}
	var objs float64
	for _, st := range top {
		out.metrics["engine."+st+"_us"] = d.meanUS(st)
		out.metrics["engine."+st+"_allocs"] = d.perQuery(d.objects[st])
		objs += d.objects[st]
	}
	out.metrics["engine.device_scan_us"] = d.meanUS(fxdist.StageDeviceScan)
	out.metrics["engine.allocs_per_query"] = d.perQuery(objs)
	hits := float64(b.plan.Hits) - float64(a.plan.Hits)
	misses := float64(b.plan.Misses) - float64(a.plan.Misses)
	if hits+misses > 0 && hits >= 0 && misses >= 0 {
		out.metrics["plancache.hit_ratio"] = hits / (hits + misses)
	}
	if ops > 0 && b.plan.Evictions >= a.plan.Evictions {
		out.metrics["plancache.evictions_per_kq"] = 1000 * float64(b.plan.Evictions-a.plan.Evictions) / float64(ops)
	}
	return d
}

// engineMeanNS is the mean wall time per query of the four top-level
// stages, which partition a retrieval.
func engineMeanNS(d stageTotals) float64 {
	var ns float64
	for _, st := range []string{fxdist.StagePlan, fxdist.StageFanout, fxdist.StageMerge, fxdist.StageAudit} {
		ns += d.wallNS[st]
	}
	return d.perQuery(ns)
}

// layerSnap adds the fleet's gate, wire and server views.
type layerSnap struct {
	engine    engineSnap
	gate      gate.Report
	server    histTotals
	inB, outB int64
	respB     int64
}

const serverHist = "fxdist_netdist_server_request_seconds"

// rescaleBackend is the cost-profile name of a coordinator dialed by a
// rescale, which keeps serving under it after cutover.
const rescaleBackend = "netdist-next"

func takeLayerSnap(f *fleet) layerSnap {
	return layerSnap{
		engine: takeEngineSnap(f.cluster, fxdist.KindNetdist, rescaleBackend),
		gate:   f.gate.Report(),
		server: histOf(serverHist),
		inB:    f.bytes.in.Load(),
		outB:   f.bytes.out.Load(),
		respB:  f.respBytes.Load(),
	}
}

// fleetLayers records client, gate, engine, plan-cache and netdist
// metrics for a fleet workload; ops is the completed requests in the
// traced window, whose spans rec holds.
func fleetLayers(out *outcome, a, b layerSnap, ops int, rec *recorder) {
	d := engineLayers(out, a.engine, b.engine, ops)
	out.metrics["netdist.dispatch_us"] = d.meanUS(fxdist.StageNetDispatch)
	out.metrics["netdist.wait_us"] = d.meanUS(fxdist.StageNetWait)
	out.metrics["netdist.decode_us"] = d.meanUS(fxdist.StageNetDecode)
	out.metrics["netdist.bytes_out_per_q"] = d.perQuery(d.bytes[fxdist.StageNetDispatch])
	out.metrics["netdist.bytes_in_per_q"] = d.perQuery(d.bytes[fxdist.StageNetDecode])
	out.metrics["netdist.server_p50_us"] = b.server.minus(a.server).quantile(0.5) * 1e6
	if ops > 0 {
		out.metrics["netdist.server_bytes_in_per_q"] = float64(b.inB-a.inB) / float64(ops)
		out.metrics["netdist.server_bytes_out_per_q"] = float64(b.outB-a.outB) / float64(ops)
		out.metrics["gate.coalesced_share"] = float64(b.gate.CoalescedQueries-a.gate.CoalescedQueries) / float64(ops)
	}
	if batches := b.gate.Batches - a.gate.Batches; batches > 0 {
		out.metrics["gate.batch_mean"] = float64(ops) / float64(batches)
	}
	rejects := func(r gate.Report) uint64 { return r.RateLimited + r.QuotaRejected + r.BurnSheds + r.FrontSheds }
	out.metrics["gate.rejects"] = float64(rejects(b.gate) - rejects(a.gate))

	// Spans: the gate handler per request, and the client's own share
	// of each Retrieve (the call minus the gate handler inside it).
	spans := rec.snapshot()
	tree := newSpanTree(spans)
	var handler, clientSelf latencies
	roundTrips := 0
	for _, s := range spans {
		switch s.Name {
		case "gate.handler":
			handler = append(handler, s.dur())
		case "client.retrieve":
			clientSelf = append(clientSelf, selfTime(s, tree.descendants(s.ID, "gate.handler")))
		case "client.http":
			roundTrips++
		}
	}
	if roundTrips > 0 {
		// Only traced round trips count their response bytes.
		out.metrics["client.resp_kb"] = float64(b.respB-a.respB) / 1024 / float64(roundTrips)
	}
	hp50 := pct(handler.sorted(), 0.5)
	out.metrics["gate.handler_p50_ms"] = ms(hp50)
	out.metrics["gate.self_p50_ms"] = ms(hp50) - engineMeanNS(d)/1e6
	out.metrics["client.self_p50_ms"] = ms(pct(clientSelf.sorted(), 0.5))
}
