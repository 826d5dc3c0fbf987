package fxdist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/gate"
)

// gateFixture builds a loaded file, an FX allocator, a fresh in-memory
// cluster (empty plan cache) and a Gate over them, served via httptest
// with the observability surface mounted like cmd/fxgate mounts it.
func gateFixture(t testing.TB, tenants []gate.TenantConfig, window time.Duration, maxBatch int) (*fxdist.Cluster, *gate.Gate, *httptest.Server) {
	return gateFixtureOf(t, 200, 1200, tenants, window, maxBatch)
}

// gateFixtureOf is gateFixture over n records whose part field has the
// given cardinality (supplier has 40 values, warehouse 8).
func gateFixtureOf(t testing.TB, parts, n int, tenants []gate.TenantConfig, window time.Duration, maxBatch int) (*fxdist.Cluster, *gate.Gate, *httptest.Server) {
	t.Helper()
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: parts},
		{Name: "supplier", Cardinality: 40},
		{Name: "warehouse", Cardinality: 8},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	records, err := fxdist.GenerateRecords(spec, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	g, err := gate.New(gate.Config{
		Cluster:        cluster,
		File:           file,
		Allocator:      fx,
		Tenants:        tenants,
		CoalesceWindow: window,
		MaxBatch:       maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	mux := http.NewServeMux()
	mux.Handle("/rpc", g)
	mux.Handle("/debug/", fxdist.MetricsHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return cluster, g, srv
}

// TestGateMultiTenantCoalescing is the tentpole's acceptance test: two
// tenants fire a concurrent burst of same-shape queries and the gate
// must (a) compile the shape's plan exactly once, (b) drive at most
// ceil(N/maxBatch) engine fan-outs, (c) return byte-identical records
// to every caller of the same query, and (d) expose per-tenant audit
// rows at /debug/tenants. Runs under -race in CI's whole-module pass.
func TestGateMultiTenantCoalescing(t *testing.T) {
	const (
		perTenant = 16
		n         = 2 * perTenant
		maxBatch  = 8
	)
	tenants := []gate.TenantConfig{
		{Name: "alpha", APIKey: "key-alpha"},
		{Name: "beta", APIKey: "key-beta"},
	}
	// A generous window so one flush drains the whole burst: the bound
	// in (b) is only guaranteed when all N land inside one window.
	cluster, g, srv := gateFixture(t, tenants, 50*time.Millisecond, maxBatch)

	alpha := client.New(srv.URL+"/rpc", client.WithAPIKey("key-alpha"))
	beta := client.New(srv.URL+"/rpc", client.WithAPIKey("key-beta"))
	defer alpha.Close()
	defer beta.Close()

	query := map[string]string{"supplier": "supplier-3"}
	results := make([]*client.RetrieveResult, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			c := alpha
			if i >= perTenant {
				c = beta
			}
			start.Wait()
			results[i], errs[i] = c.Retrieve(context.Background(), query)
		}(i)
	}
	start.Done()
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// (a) one plan-cache compilation across both tenants.
	pc := cluster.PlanCache()
	if pc.Misses != 1 {
		t.Fatalf("plan cache misses = %d, want exactly 1 (shape compiled once across tenants)", pc.Misses)
	}

	// (b) at most ceil(N/maxBatch) engine fan-outs.
	rep := g.Report()
	wantMax := uint64((n + maxBatch - 1) / maxBatch)
	if rep.Batches == 0 || rep.Batches > wantMax {
		t.Fatalf("batches = %d, want 1..%d", rep.Batches, wantMax)
	}
	if rep.CoalescedQueries != n {
		t.Fatalf("coalesced queries = %d, want %d", rep.CoalescedQueries, n)
	}

	// (c) byte-identical per-tenant results.
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i].Records, results[0].Records) {
			t.Fatalf("request %d records diverge from request 0", i)
		}
		if !reflect.DeepEqual(results[i].DeviceBuckets, results[0].DeviceBuckets) {
			t.Fatalf("request %d device buckets diverge", i)
		}
		if !results[i].Coalesced || results[i].BatchSize < 2 {
			t.Fatalf("request %d not marked coalesced (batch %d)", i, results[i].BatchSize)
		}
	}
	// ... and identical to an uncoalesced retrieval of the same query.
	pm, err := cluster.Spec(query)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cluster.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Records) != len(results[0].Records) {
		t.Fatalf("coalesced result has %d records, direct retrieval %d",
			len(results[0].Records), len(direct.Records))
	}

	// (d) per-tenant audit rows on /debug/tenants.
	res, err := http.Get(srv.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/tenants status %d", res.StatusCode)
	}
	var doc gate.Report
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tenants) != 2 {
		t.Fatalf("tenant rows = %d, want 2", len(doc.Tenants))
	}
	for _, row := range doc.Tenants {
		if row.Requests != perTenant {
			t.Fatalf("tenant %s requests = %d, want %d", row.Name, row.Requests, perTenant)
		}
		if row.Coalesced != perTenant {
			t.Fatalf("tenant %s coalesced = %d, want %d", row.Name, row.Coalesced, perTenant)
		}
		if len(row.Shapes) != 1 || row.Shapes[0].Shape != "*s*" {
			t.Fatalf("tenant %s shape rows = %+v, want one *s* row", row.Name, row.Shapes)
		}
		if row.Shapes[0].Queries != perTenant {
			t.Fatalf("tenant %s shape queries = %d, want %d", row.Name, row.Shapes[0].Queries, perTenant)
		}
	}

	// The engine's wide events carry the tenant dimension for both.
	seen := map[string]bool{}
	for _, ev := range fxdist.QueryEvents(cluster.Kind(), 512) {
		if ev.Tenant != "" {
			seen[ev.Tenant] = true
		}
	}
	if !seen["alpha"] || !seen["beta"] {
		t.Fatalf("wide events missing tenant attribution: %v", seen)
	}
}

// TestGateQuotaIsolation pins the admission story: a rate-limited
// tenant hitting its budget gets 429 with a Retry-After hint while a
// second tenant on the same gate stays unaffected.
func TestGateQuotaIsolation(t *testing.T) {
	tenants := []gate.TenantConfig{
		{Name: "small", APIKey: "key-small", RatePerSec: 0.01, Burst: 1},
		{Name: "big", APIKey: "key-big"},
	}
	_, _, srv := gateFixture(t, tenants, -1, 8) // coalescing off: admission only

	small := client.New(srv.URL+"/rpc", client.WithAPIKey("key-small"))
	big := client.New(srv.URL+"/rpc", client.WithAPIKey("key-big"))
	defer small.Close()
	defer big.Close()

	ctx := context.Background()
	query := map[string]string{"warehouse": "warehouse-1"}
	if _, err := small.Retrieve(ctx, query); err != nil {
		t.Fatalf("first request within burst should pass: %v", err)
	}
	_, err := small.Retrieve(ctx, query)
	var fe *fxdist.Error
	if !errors.As(err, &fe) {
		t.Fatalf("want *fxdist.Error, got %T: %v", err, err)
	}
	if fe.Code != fxdist.ErrCodeRateLimited {
		t.Fatalf("code = %s, want %s", fe.Code, fxdist.ErrCodeRateLimited)
	}
	if fe.RetryAfter <= 0 {
		t.Fatal("rate-limited rejection carries no Retry-After hint")
	}

	// The rejection also rides the HTTP layer: 429 plus Retry-After.
	body := `{"jsonrpc":"2.0","id":9,"method":"fx.retrieve","params":{"query":{"warehouse":"warehouse-1"}}}`
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/rpc", jsonBody(body))
	req.Header.Set("Authorization", "Bearer key-small")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	// The other tenant is untouched.
	for i := 0; i < 3; i++ {
		if _, err := big.Retrieve(ctx, query); err != nil {
			t.Fatalf("unaffected tenant rejected: %v", err)
		}
	}

	// Unknown keys stay out entirely.
	nobody := client.New(srv.URL+"/rpc", client.WithAPIKey("wrong"))
	defer nobody.Close()
	_, err = nobody.Retrieve(ctx, query)
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeUnauthorized {
		t.Fatalf("want unauthorized, got %v", err)
	}
}

// TestGateMethodSurface walks the non-retrieve methods end to end:
// fx.explain (shape, |R(q)|, bound, exact loads, plan-cache residency)
// and fx.health, plus unknown-method classification.
func TestGateMethodSurface(t *testing.T) {
	tenants := []gate.TenantConfig{{Name: "solo", APIKey: "key-solo"}}
	cluster, _, srv := gateFixture(t, tenants, time.Millisecond, 8)

	c := client.New(srv.URL+"/rpc", client.WithAPIKey("key-solo"))
	defer c.Close()
	ctx := context.Background()

	query := map[string]string{"supplier": "supplier-5"}
	ex, err := c.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shape != "*s*" {
		t.Fatalf("shape = %q, want *s*", ex.Shape)
	}
	if ex.M != cluster.M() || ex.RQ <= 0 || ex.Bound != (ex.RQ+ex.M-1)/ex.M {
		t.Fatalf("explain invariants broken: %+v", ex)
	}
	if len(ex.DeviceLoads) != ex.M {
		t.Fatalf("device loads = %v, want %d entries", ex.DeviceLoads, ex.M)
	}
	if ex.PlanCached {
		t.Fatal("plan reported cached before any retrieval")
	}
	if _, err := c.Retrieve(ctx, query); err != nil {
		t.Fatal(err)
	}
	ex, err = c.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.PlanCached {
		t.Fatal("plan not reported cached after retrieval")
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Backend != cluster.Kind() || h.M != cluster.M() {
		t.Fatalf("health = %+v", h)
	}
	if h.APIVersion != client.APIVersion {
		t.Fatalf("api version = %q, want %q", h.APIVersion, client.APIVersion)
	}

	// Batch method: mixed valid and invalid queries demux per item.
	batch, err := c.RetrieveBatch(ctx, []map[string]string{
		{"supplier": "supplier-5"},
		{"no_such_field": "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(batch.Items))
	}
	if batch.Items[0].Result == nil || batch.Items[0].Error != nil {
		t.Fatalf("item 0 should succeed: %+v", batch.Items[0])
	}
	if batch.Items[1].Error == nil ||
		batch.Items[1].Error.Err().Code != fxdist.ErrCodeInvalidQuery {
		t.Fatalf("item 1 should fail invalid_query: %+v", batch.Items[1])
	}

	// Unknown method comes back as the taxonomy's unknown_method.
	var out json.RawMessage
	err = rawCall(srv.URL+"/rpc", "key-solo", "fx.nope", nil, &out)
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeUnknownMethod {
		t.Fatalf("want unknown_method, got %v", err)
	}
}

// rawCall drives one JSON-RPC frame outside the typed client.
func rawCall(endpoint, key, method string, params any, out any) error {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return err
		}
		raw = b
	}
	frame, err := json.Marshal(client.Request{JSONRPC: "2.0", ID: json.RawMessage("1"), Method: method, Params: raw})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, endpoint, jsonBody(string(frame)))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	var rpc client.Response
	if err := json.NewDecoder(res.Body).Decode(&rpc); err != nil {
		return err
	}
	if rpc.Error != nil {
		return rpc.Error.Err()
	}
	if out != nil {
		return json.Unmarshal(rpc.Result, out)
	}
	return nil
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// roundTripFixture serves 11000 records through a gate with coalescing
// off, so a round trip measures the JSON tier and not the batching
// window: a part query answers about 30 records, a supplier query
// about 275, the front-door workload's mean answer.
func roundTripFixture(tb testing.TB) *client.Client {
	tenants := []gate.TenantConfig{{Name: "solo", APIKey: "key-solo"}}
	_, _, srv := gateFixtureOf(tb, 366, 11000, tenants, -1, 8)
	c := client.New(srv.URL+"/rpc", client.WithAPIKey("key-solo"))
	tb.Cleanup(c.Close)
	return c
}

// BenchmarkGateRoundTrip is the JSON tier's rung of the layer ladder:
// client.Retrieve through an httptest gate to a memory cluster, about
// 275 records per answer.
func BenchmarkGateRoundTrip(b *testing.B) {
	c := roundTripFixture(b)
	ctx := context.Background()
	queries := make([]map[string]string, 40)
	for i := range queries {
		queries[i] = map[string]string{"supplier": fmt.Sprintf("supplier-%d", i)}
	}
	for _, q := range queries {
		if _, err := c.Retrieve(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Retrieve(ctx, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGateRoundTripAllocsFlatInRecords pins the JSON tier's allocation
// count as independent of the answer size: a warm round trip for ~275
// records allocates no more than one for ~30, within a small constant
// for net/http's own variation.
func TestGateRoundTripAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	const slack = 5
	c := roundTripFixture(t)
	ctx := context.Background()
	measure := func(field string) (allocs float64, records int) {
		queries := make([]map[string]string, 20)
		for i := range queries {
			queries[i] = map[string]string{field: fmt.Sprintf("%s-%d", field, i)}
			res, err := c.Retrieve(ctx, queries[i])
			if err != nil {
				t.Fatal(err)
			}
			records += len(res.Records)
		}
		i := 0
		allocs = testing.AllocsPerRun(len(queries), func() {
			if _, err := c.Retrieve(ctx, queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		return allocs, records / len(queries)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, nSmall := measure("part")
	large, nLarge := measure("supplier")
	t.Logf("round trip: %.1f allocs for ~%d records, %.1f for ~%d", small, nSmall, large, nLarge)
	if nLarge < 5*nSmall {
		t.Fatalf("answers of %d and %d records do not differ enough to test", nSmall, nLarge)
	}
	if large > small+slack {
		t.Fatalf("round trip allocates %.1f for ~%d records but %.1f for ~%d: grows with the answer",
			large, nLarge, small, nSmall)
	}
}
