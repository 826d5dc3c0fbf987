// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed against the program's public entry points,
// checks every answer against a reference computed from the generated
// records, and prints its metrics as one JSON object on the last line
// of standard output. See README.md in this directory for the
// workloads, the metrics and the layer map.
//
//	python3 perfbench/run.py --workload front-door --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload; BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"qps", "queries/s"},
	{"allocs_per_op", "count"},
	{"heap_peak_mb", "MB"},
	{"lrs_ratio", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1). Every run
// reports all of them; a layer the workload bypasses reports 0. p99_ms
// is here rather than end to end: on a shared two-CPU host its spread
// across seeds is wider than any bound worth gating on.
var perLayer = []metricDef{
	{"client.self_p50_ms", "ms"},
	{"client.resp_kb", "kB"},
	{"gate.handler_p50_ms", "ms"},
	{"gate.self_p50_ms", "ms"},
	{"gate.batch_mean", "count"},
	{"gate.coalesced_share", "ratio"},
	{"gate.rejects", "count"},
	{"engine.plan_us", "us"},
	{"engine.fanout_us", "us"},
	{"engine.merge_us", "us"},
	{"engine.audit_us", "us"},
	{"engine.device_scan_us", "us"},
	{"engine.allocs_per_query", "count"},
	{"engine.plan_allocs", "count"},
	{"engine.fanout_allocs", "count"},
	{"engine.merge_allocs", "count"},
	{"engine.audit_allocs", "count"},
	{"engine.call_self_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions_per_kq", "count"},
	{"netdist.dispatch_us", "us"},
	{"netdist.wait_us", "us"},
	{"netdist.decode_us", "us"},
	{"netdist.bytes_out_per_q", "B"},
	{"netdist.bytes_in_per_q", "B"},
	{"netdist.server_p50_us", "us"},
	{"netdist.server_bytes_in_per_q", "B"},
	{"netdist.server_bytes_out_per_q", "B"},
	{"storage.insert_us", "us"},
	{"storage.sync_ms", "ms"},
	{"storage.read_fanout_us", "us"},
	{"pagestore.append_us", "us"},
	{"pagestore.sync_ms", "ms"},
	{"rebalance.copy_s", "s"},
	{"rebalance.moves", "count"},
	{"rebalance.dual_reads", "count"},
	{"rebalance.mismatches", "count"},
	{"rebalance.old_win_share", "ratio"},
	{"decluster.strict_share", "ratio"},
	{"decluster.rq_mean", "buckets"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.alloc_mb_per_s", "MB/s"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.outstanding_max", "count"},
	{"p99_ms", "ms"},
	{"max_qps", "queries/s"},
	{"hi.p50_ms", "ms"},
	{"hi.p99_ms", "ms"},
	{"write_rps", "records/s"},
	{"space_amp", "ratio"},
	{"rescale_s", "s"},
	{"rescale.p50_ms", "ms"},
	{"rescale.p99_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// reservedSeed is kept aside: it is not used while developing a change,
// only to confirm a claimed gain afterwards.
const reservedSeed = 9001

// setupReps is how many times a run sets its system up; setup_s is the
// median, and the last one is measured.
const setupReps = 5

// maxGenLag bounds how late free open-loop workers send (p99). A run
// whose generator fell further behind its schedule is invalid: it
// prints no result and exits with status 3.
const maxGenLag = 50 * time.Millisecond

// env is one invocation's settings.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dir      string // scratch space inside the checkout
	rec      *recorder
}

// outcome is what a workload run reports.
type outcome struct {
	setups    []time.Duration
	attempted int
	failed    int // errors and refusals
	wrong     int // answers that differ from the reference
	metrics   map[string]float64
	invalid   string // non-empty: the generator fell behind
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

// workloads are the runnable workloads by name; README.md says why each
// is in the benchmark.
var workloads = map[string]func(e *env) (*outcome, error){
	"front-door":  runFrontDoor,
	"wide-inproc": runWideInproc,
	"durable-rw":  runDurableRW,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := &env{workload: *name, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: dir}
	if e.trace {
		e.rec = newRecorder()
	}

	out, err := runWorkload(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	if out.invalid != "" {
		b, _ := json.Marshal(out.info)
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n%s\n", e.workload, out.invalid, b)
		return 3
	}
	if e.trace {
		spans := e.rec.snapshot()
		out.metrics["trace.spans"] = float64(len(spans))
		out.info["spans_dropped"] = e.rec.dropped.Load()
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		out.info["spans_file"] = path
	}

	setups := make([]float64, len(out.setups))
	for i, d := range out.setups {
		setups[i] = d.Seconds()
	}
	out.metrics["setup_s"] = medianFloat(setups)
	if out.attempted > 0 {
		out.metrics["fail_ratio"] = float64(out.failed+out.wrong) / float64(out.attempted)
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := out.result(defs)
	for _, d := range defs {
		if v := res.Metrics[d.name].Value; !e.trace && v <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured (%v)\n", e.workload, d.name, v)
			return 1
		}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", e.workload)
		return 1
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	out.info["setup_s_each"] = setups
	writeJSONLine(w, map[string]any{"provenance": provenance(e), "run": out.info})
	writeJSONLine(w, res)
	if out.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong answers\n", e.workload, out.wrong)
	}
	return out.exitCode()
}

// result renders the outcome's metrics named by defs; a metric not
// measured, or not finite, reads 0.
func (o *outcome) result(defs []metricDef) result {
	res := result{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed + o.wrong, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := o.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// exitCode is the run's status: any wrong answer fails it.
func (o *outcome) exitCode() int {
	if o.wrong > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func writeJSONLine(w *bufio.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	w.Write(b)
	w.WriteByte('\n')
}

// provenance records where and on what a run was made.
func provenance(e *env) map[string]any {
	return map[string]any{
		"workload":      e.workload,
		"seed":          e.seed,
		"reserved_seed": reservedSeed,
		"seconds":       e.window.Seconds(),
		"trace":         e.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        envOr("PERFBENCH_COMMIT", "unknown"),
		"source_sha256": envOr("PERFBENCH_SOURCE_SHA256", "unknown"),
		"setup_reps":    setupReps,
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// phaseInfo summarises a phase for the run's info line, with sample
// counts and the percentile the tail figure actually is.
func phaseInfo(p *phase) map[string]any {
	n := len(p.tally.lat)
	m := map[string]any{
		"samples":       n,
		"ok":            p.tally.ok,
		"errors":        p.tally.errs,
		"wrong":         p.tally.wrongs,
		"p50_ms":        ms(p.p50()),
		"p99_ms":        ms(p.p99()),
		"p99_is":        effectiveQ(n, 0.99),
		"p99_sliced_ms": ms(p.p99Sliced()),
		"ops_s_sliced":  p.throughputSliced(),
		"p90_ms":        ms(pct(p.lats(), 0.90)),
		"p95_ms":        ms(pct(p.lats(), 0.95)),
		"seconds":       p.Elapsed.Seconds(),
		"ops_s":         p.throughput(),
	}
	if p.Rate > 0 {
		lag := p.lag.sorted()
		m["rate"] = p.Rate
		m["lag_p99_ms"] = ms(pct(lag, 0.99))
		m["outstanding_max"] = p.maxOut
		m["drain_ms"] = ms(p.drain)
	}
	return m
}

// genLag checks open-loop phases against maxGenLag and records the
// generator's own figures.
func genLag(out *outcome, phases ...*phase) {
	var lag latencies
	maxOut := 0
	for _, p := range phases {
		lag = append(lag, p.lag...)
		maxOut = max(maxOut, p.maxOut)
	}
	if len(lag) == 0 {
		return
	}
	p99 := pct(lag.sorted(), 0.99)
	out.metrics["gen.lag_p99_ms"] = ms(p99)
	out.metrics["gen.outstanding_max"] = float64(maxOut)
	if p99 > maxGenLag {
		out.invalid = fmt.Sprintf("generator lag p99 %.2fms exceeds %v", ms(p99), maxGenLag)
	}
}

// errorLog keeps the first few distinct operation errors for the run
// record.
type errorLog struct {
	mu   sync.Mutex
	seen map[string]int
}

func (l *errorLog) note(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = map[string]int{}
	}
	if msg := err.Error(); l.seen[msg] > 0 || len(l.seen) < 8 {
		l.seen[msg]++
	}
}

func (l *errorLog) into(out *outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seen) > 0 {
		out.info["errors"] = l.seen
	}
}

// account adds phases' operation counts to the outcome.
func account(out *outcome, phases ...*phase) {
	for _, p := range phases {
		out.attempted += p.tally.attempted()
		out.failed += p.tally.errs
		out.wrong += p.tally.wrongs
	}
}

// runtimeMetrics records the runtime probe's figures; ops is the
// number of completed operations in the window.
func runtimeMetrics(out *outcome, d runtimeDelta, ops int) {
	if ops > 0 {
		out.metrics["allocs_per_op"] = float64(d.allocObjs) / float64(ops)
	}
	out.metrics["heap_peak_mb"] = d.peakHeapMB
	out.metrics["runtime.gc_cpu_frac"] = d.gcCPUFrac
	out.metrics["runtime.gc_pause_p99_ms"] = ms(d.gcPauseP99)
	if d.elapsed > 0 {
		out.metrics["runtime.alloc_mb_per_s"] = float64(d.allocBytes) / (1 << 20) / d.elapsed.Seconds()
	}
}

// overhead records the tracing overhead: the traced minus the untraced
// median service time of the interleaved operations, in percent.
func overhead(out *outcome, rec *recorder) {
	diff, untraced, traced := rec.overheadPct()
	out.metrics["trace.overhead_pct"] = diff
	out.info["overhead_untraced_p50_ms"] = ms(untraced)
	out.info["overhead_traced_p50_ms"] = ms(traced)
}
