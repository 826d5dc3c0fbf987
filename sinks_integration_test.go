package fxdist_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fxdist"
	"fxdist/internal/telemetry"
)

// openBackend opens one of the four retrieval backends over file and
// alloc; the returned func releases it.
func openBackend(t *testing.T, kind string, file *fxdist.File, alloc fxdist.GroupAllocator, opts ...fxdist.Option) (*fxdist.Cluster, func()) {
	t.Helper()
	cfg := fxdist.Config{File: file, Allocator: alloc}
	stop := func() {}
	switch kind {
	case fxdist.KindDurable:
		cfg.Dir = t.TempDir()
	case fxdist.KindReplicated:
		opts = append(opts, fxdist.WithReplication(fxdist.ChainedFailover))
	case fxdist.KindNetdist:
		addrs, stopServers, err := fxdist.DeployLocal(file, alloc)
		if err != nil {
			t.Fatal(err)
		}
		cfg = fxdist.Config{File: file, Addrs: addrs}
		stop = stopServers
	}
	c, err := fxdist.Open(cfg, opts...)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	return c, func() {
		c.Close()
		stop()
	}
}

var allBackends = []string{fxdist.KindMemory, fxdist.KindDurable, fxdist.KindReplicated, fxdist.KindNetdist}

func resetSinks() {
	fxdist.ResetAudit()
	fxdist.ResetCostProfilers()
	fxdist.ResetFlightRecorders()
	telemetry.ResetEventLogs()
}

func deviceBuckets(devs []fxdist.FlightDevice) []int {
	out := make([]int, len(devs))
	for i, d := range devs {
		out[i] = d.Buckets
	}
	return out
}

// TestOneRecordAcrossSinks runs one query on each backend and checks
// that every sink folded the same record: the kept wide event, the
// flight record, the audit row and the cost profile agree with each
// other, and with the caller's result, on shape, |R(q)|, bound, elapsed
// time and per-device buckets.
func TestOneRecordAcrossSinks(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := file.Spec(map[string]string{"b": "b-3"})
	if err != nil {
		t.Fatal(err)
	}
	const shape = "*s"
	rq := fs.Sizes[0]
	bound := (rq + fs.M - 1) / fs.M
	for _, kind := range allBackends {
		t.Run(kind, func(t *testing.T) {
			resetSinks()
			c, closeBackend := openBackend(t, kind, file, fx)
			defer closeBackend()
			res, err := c.Retrieve(pm)
			if err != nil {
				t.Fatal(err)
			}

			evs := fxdist.QueryEvents(kind, 8)
			if len(evs) != 1 {
				t.Fatalf("%d kept events, want the query's one", len(evs))
			}
			ev := evs[0]
			flights := c.FlightReport()
			if len(flights.Shapes) != 1 || len(flights.Shapes[0].Records) != 1 {
				t.Fatalf("flight report %+v, want one record", flights)
			}
			fl := flights.Shapes[0].Records[0]
			aud := shapeAudit(t, kind, shape)
			var cost *fxdist.ShapeCost
			for i, s := range c.CostReport().Shapes {
				if s.Shape == shape {
					cost = &c.CostReport().Shapes[i]
				}
			}
			if cost == nil {
				t.Fatalf("no cost profile for shape %s", shape)
			}

			if ev.Shape != shape || fl.Shape != shape || aud.Shape != shape {
				t.Errorf("shape: event %q flight %q audit %q, want %q", ev.Shape, fl.Shape, aud.Shape, shape)
			}
			if ev.RQ != rq || fl.RQ != rq || aud.RQ != rq {
				t.Errorf("|R(q)|: event %d flight %d audit %d, want %d", ev.RQ, fl.RQ, aud.RQ, rq)
			}
			if ev.Bound != bound || fl.Bound != bound || aud.Bound != bound {
				t.Errorf("bound: event %d flight %d audit %d, want %d", ev.Bound, fl.Bound, aud.Bound, bound)
			}
			if aud.Queries != 1 || cost.Queries != 1 {
				t.Errorf("audit counted %d queries, cost profile %d; want 1 each", aud.Queries, cost.Queries)
			}
			if ev.Elapsed <= 0 || fl.Elapsed != ev.Elapsed || cost.MeanT != ev.Elapsed {
				t.Errorf("elapsed: event %v flight %v cost profile %v, want one positive figure", ev.Elapsed, fl.Elapsed, cost.MeanT)
			}
			if got := deviceBuckets(ev.Devices); !reflect.DeepEqual(got, res.DeviceBuckets) {
				t.Errorf("event device buckets %v, result %v", got, res.DeviceBuckets)
			}
			if got := deviceBuckets(fl.Devices); !reflect.DeepEqual(got, res.DeviceBuckets) {
				t.Errorf("flight device buckets %v, result %v", got, res.DeviceBuckets)
			}
			if ev.MaxDeviceBuckets != res.LargestResponseSize || aud.MaxBuckets != ev.MaxDeviceBuckets || fl.MaxDeviceBuckets != ev.MaxDeviceBuckets {
				t.Errorf("worst device: event %d flight %d audit %d result %d",
					ev.MaxDeviceBuckets, fl.MaxDeviceBuckets, aud.MaxBuckets, res.LargestResponseSize)
			}
			if ev.TraceID == 0 || ev.TraceID != res.TraceID || fl.TraceID != res.TraceID {
				t.Errorf("trace: event %d flight %d result %d", ev.TraceID, fl.TraceID, res.TraceID)
			}
			if !reflect.DeepEqual(ev.Stages, res.Stages) || !reflect.DeepEqual(fl.Stages, res.Stages) {
				t.Errorf("stages differ:\nevent  %+v\nflight %+v\nresult %+v", ev.Stages, fl.Stages, res.Stages)
			}
		})
	}
}

// TestKeptRecordsOutliveLaterQueries keeps one record from each of the
// event log, the flight recorder and a live subscriber, runs 1,000 more
// queries through pooled hot paths (arena results in process, decode
// arenas over the wire), and requires the kept records to read back
// unchanged: nothing they reference may be recycled memory.
func TestKeptRecordsOutliveLaterQueries(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	var pms []fxdist.PartialMatch
	for i := 0; i < 15; i++ {
		for _, spec := range []map[string]string{
			{"b": fmt.Sprintf("b-%d", i)},
			{"a": fmt.Sprintf("a-%d", i*4)},
			{"a": fmt.Sprintf("a-%d", i), "b": fmt.Sprintf("b-%d", i)},
		} {
			pm, err := file.Spec(spec)
			if err != nil {
				t.Fatal(err)
			}
			pms = append(pms, pm)
		}
	}
	for _, kind := range []string{fxdist.KindMemory, fxdist.KindNetdist} {
		t.Run(kind, func(t *testing.T) {
			resetSinks()
			c, closeBackend := openBackend(t, kind, file, fx, fxdist.WithArenaResults())
			defer closeBackend()
			feed, cancel := telemetry.LogFor(kind).Subscribe()
			defer cancel()
			res, err := c.Retrieve(pms[0])
			if err != nil {
				t.Fatal(err)
			}
			res.Release()

			var sub fxdist.QueryEvent
			select {
			case sub = <-feed:
			case <-time.After(5 * time.Second):
				t.Fatal("subscriber got no event")
			}
			kept := map[string]any{
				"event":      fxdist.QueryEvents(kind, 1)[0],
				"flight":     c.FlightReport().Shapes[0].Records[0],
				"subscriber": sub,
			}
			before := make(map[string]string, len(kept))
			for name, rec := range kept {
				raw, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				before[name] = string(raw)
			}

			for i := 0; i < 1000; i++ {
				res, err := c.Retrieve(pms[i%len(pms)])
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
			}

			for name, rec := range kept {
				raw, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				if string(raw) != before[name] {
					t.Errorf("kept %s record changed after 1000 queries:\nbefore %s\nafter  %s", name, before[name], raw)
				}
			}
		})
	}
}
