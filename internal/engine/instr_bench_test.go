package engine_test

import (
	"context"
	"testing"

	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
)

// BenchmarkRetrieveInstrumentation isolates the cost-attribution
// overhead: the identical executor and workload, with and without a
// profiler+flight recorder attached (instrumentation is skipped
// entirely when the executor has no sinks). The devices answer instantly, so the
// measured delta is the absolute per-query instrumentation cost — an
// upper bound on its relative overhead for any real retrieval.
func BenchmarkRetrieveInstrumentation(b *testing.B) {
	for _, mode := range []struct {
		name  string
		instr bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			f := mkhash.MustNew(mkhash.Schema{Fields: []string{"a", "b"}, Depths: []int{2, 2}})
			devs := make([]engine.Device, 4)
			for d := range devs {
				devs[d] = fixedDevice{ans: engine.Answer{Buckets: 4, Records: 16, Hits: []mkhash.Record{rec("x", "y")}}}
			}
			cfg := engine.Config{Schema: f, Devices: devs, Model: engine.MainMemory}
			if mode.instr {
				cfg.Sinks = []engine.Sink{obs.NewCostProfiler("bench"), obs.NewFlightRecorder("bench", obs.DefaultFlightSlots)}
			}
			e, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pm, err := f.Spec(map[string]string{"a": "x"})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Retrieve(ctx, pm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
