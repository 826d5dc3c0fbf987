package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fxdist"
	"fxdist/client"
)

// escapingValues need every kind of escape encoding/json writes: HTML
// characters, quotes and backslashes, control bytes, invalid UTF-8 and
// the JavaScript line separators.
var escapingValues = []string{
	"<b>&amp;</b>", `say "hi"\`, "tab\tnew\nline\x01", "bad\xffutf8\xc3", "line\u2028para\u2029", "plain", "ünïcode",
}

// newTestGate serves a small file whose records carry escapingValues,
// with coalescing off.
func newTestGate(t testing.TB, tenants ...TenantConfig) *Gate {
	t.Helper()
	file, err := fxdist.NewFile(fxdist.Schema{Fields: []string{"name", "tag"}, Depths: []int{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rec := fxdist.Record{escapingValues[i%len(escapingValues)], "tag-" + strconv.Itoa(i%3)}
		if err := file.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := file.FileSystem(4)
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
	if len(tenants) == 0 {
		tenants = []TenantConfig{{Name: "solo", APIKey: "key"}}
	}
	g, err := New(Config{Cluster: cluster, File: file, Allocator: fx, Tenants: tenants, CoalesceWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func post(g *Gate, key, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

// oldFrame is a response frame as the gate used to encode it: the
// result marshalled on its own, then embedded in a client.Response.
func oldFrame(t *testing.T, id string, result any, e *client.ErrorObject) client.Response {
	t.Helper()
	res := client.Response{JSONRPC: "2.0", Error: e}
	if id != "" {
		res.ID = json.RawMessage(id)
	}
	if result != nil {
		raw, err := json.Marshal(result)
		if err != nil {
			t.Fatal(err)
		}
		res.Result = raw
	}
	return res
}

// TestResponseBytesMatchOldEncoding pins the gate's response bodies to
// the bytes of the two-step encoding it replaced, for results, batch
// arrays and every error frame, over values that need escaping.
func TestResponseBytesMatchOldEncoding(t *testing.T) {
	g := newTestGate(t,
		TenantConfig{Name: "solo", APIKey: "key"},
		TenantConfig{Name: "busy", APIKey: "busy-key", MaxInFlight: 1})
	records := make([]fxdist.Record, len(escapingValues))
	for i, v := range escapingValues {
		records[i] = fxdist.Record{v, escapingValues[len(escapingValues)-1-i]}
	}
	fixed := toWireResult(fxdist.RetrieveResult{
		Records: records, DeviceBuckets: []int{1, 0, 2, 1}, LargestResponseSize: 2, TraceID: 99,
	}, 3)
	served := map[string]any{}
	register := func(name string, h HandlerFunc) {
		err := g.methods.RegisterMethod(name, HandlerFunc(func(ctx context.Context, t *tenant, p json.RawMessage) (any, *fxdist.Error) {
			v, e := h(ctx, t, p)
			served[name] = v
			return v, e
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	register("test.fixed", func(context.Context, *tenant, json.RawMessage) (any, *fxdist.Error) {
		return fixed, nil
	})
	register("test.retrieve", g.handleRetrieve)
	register("test.retrieveBatch", g.handleRetrieveBatch)
	// The busy tenant's only in-flight slot is taken, so its requests
	// get the quota rejection (429) with a fixed Retry-After.
	if !g.tenants.authenticate("busy-key").acquire() {
		t.Fatal("could not occupy the busy tenant's slot")
	}

	var parseErr error
	{
		var req client.Request
		parseErr = json.Unmarshal([]byte(`{"jsonrpc":`), &req)
	}
	errFrame := func(id string, code fxdist.ErrorCode, msg string) client.Response {
		return oldFrame(t, id, nil, client.FromError(fxdist.NewError(code, msg)))
	}
	quota := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant in-flight quota exceeded")
	quota.RetryAfter = defaultShedRetryAfter

	cases := []struct {
		name   string
		key    string
		body   string
		status int
		want   func() any
	}{
		{"result", "key", `{"jsonrpc":"2.0","id":1,"method":"test.fixed"}`, http.StatusOK,
			func() any { return oldFrame(t, "1", fixed, nil) }},
		{"retrieve", "key", `{"jsonrpc":"2.0","id":"r","method":"test.retrieve","params":{"query":{"name":"<b>&amp;</b>"}}}`, http.StatusOK,
			func() any { return oldFrame(t, `"r"`, served["test.retrieve"], nil) }},
		{"batch array", "key", `[{"jsonrpc":"2.0","id":1,"method":"test.fixed"},{"jsonrpc":"2.0","id":2,"method":"no<such>"},{"jsonrpc":"1.0","id":3,"method":"m"}]`, http.StatusOK,
			func() any {
				return []client.Response{
					oldFrame(t, "1", fixed, nil),
					errFrame("2", fxdist.ErrCodeUnknownMethod, "unknown method no<such>"),
					oldFrame(t, "3", nil, client.InvalidRequestError("not a JSON-RPC 2.0 request")),
				}
			}},
		{"batch method", "key", `{"jsonrpc":"2.0","id":4,"method":"test.retrieveBatch","params":{"queries":[{"name":"tab\tnew\nline\u0001"},{"nope":"x"}]}}`, http.StatusOK,
			func() any { return oldFrame(t, "4", served["test.retrieveBatch"], nil) }},
		{"unauthorized", "wrong", `{"jsonrpc":"2.0","id":5,"method":"test.fixed"}`, http.StatusUnauthorized,
			func() any { return errFrame("", fxdist.ErrCodeUnauthorized, "unknown or missing API key") }},
		{"quota 429", "busy-key", `{"jsonrpc":"2.0","id":6,"method":"test.fixed"}`, http.StatusTooManyRequests,
			func() any { return oldFrame(t, "6", nil, client.FromError(quota)) }},
		{"parse", "key", `{"jsonrpc":`, http.StatusOK,
			func() any { return oldFrame(t, "", nil, client.ParseError(parseErr.Error())) }},
		{"invalid request", "key", `{"jsonrpc":"1.0","id":7,"method":"m"}`, http.StatusOK,
			func() any { return oldFrame(t, "7", nil, client.InvalidRequestError("not a JSON-RPC 2.0 request")) }},
		{"empty batch", "key", `[]`, http.StatusOK,
			func() any { return oldFrame(t, "", nil, client.InvalidRequestError("empty batch envelope")) }},
		{"unknown method", "key", `{"jsonrpc":"2.0","id":8,"method":"<x&y> \"q\""}`, http.StatusOK,
			func() any { return errFrame("8", fxdist.ErrCodeUnknownMethod, "unknown method <x&y> \"q\"") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(g, tc.key, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			want, err := json.Marshal(tc.want())
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != string(want) {
				t.Fatalf("body differs from the old encoding\n got: %s\nwant: %s", got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("Content-Length %q, body %d bytes", cl, len(want))
			}
		})
	}
	if res := served["test.retrieve"].(*client.RetrieveResult); len(res.Records) == 0 {
		t.Fatal("test.retrieve matched no records: the escaping values went unchecked")
	}
	if items := served["test.retrieveBatch"].(*client.BatchResult).Items; items[0].Result == nil || items[1].Error == nil {
		t.Fatalf("test.retrieveBatch items %+v, want one result and one error", items)
	}
}

// TestUnencodableResultIs500 pins the one failure of the single
// writer: a result encoding/json cannot marshal is answered with an
// internal-error frame at HTTP 500, never with a partial body.
func TestUnencodableResultIs500(t *testing.T) {
	g := newTestGate(t)
	err := g.methods.RegisterMethod("test.nan", HandlerFunc(func(context.Context, *tenant, json.RawMessage) (any, *fxdist.Error) {
		return math.NaN(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"jsonrpc":"2.0","id":1,"method":"test.nan"}`,
		`[{"jsonrpc":"2.0","id":1,"method":"fx.health"},{"jsonrpc":"2.0","id":2,"method":"test.nan"}]`,
	} {
		rec := post(g, "key", body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", body, rec.Code)
		}
		var res client.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%s: 500 body is no JSON-RPC frame: %v", body, err)
		}
		if e := res.Error.Err(); e == nil || e.Code != fxdist.ErrCodeInternal || !strings.HasPrefix(e.Message, "marshal response: ") {
			t.Fatalf("%s: error %v, want internal marshal failure", body, e)
		}
	}
}

// TestOversizedRequestIs413 sends one byte past the body limit: the
// gate answers 413 with a JSON-RPC error naming the limit, where a
// silently cut body used to surface as a parse error at HTTP 200.
func TestOversizedRequestIs413(t *testing.T) {
	g := newTestGate(t)
	frame := `{"jsonrpc":"2.0","id":1,"method":"fx.health","params":{"pad":"`
	body := frame + strings.Repeat("x", maxBodyBytes-len(frame)-2) + `"}`
	if rec := post(g, "key", body); rec.Code != http.StatusOK {
		t.Fatalf("a body of exactly the limit got status %d: %.200s", rec.Code, rec.Body)
	}
	rec := post(g, "key", body+" ")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body)
	}
	var res client.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("413 body is no JSON-RPC frame: %v", err)
	}
	if res.Error == nil || !strings.Contains(res.Error.Message, fmt.Sprintf("%d MiB", maxBodyBytes>>20)) {
		t.Fatalf("413 error does not name the limit: %+v", res.Error)
	}
	var fe *fxdist.Error
	if err := res.Error.Err(); !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInvalidQuery {
		t.Fatalf("413 error folds to %v, want invalid_query", err)
	}
}

// FuzzGateServeHTTP posts arbitrary bodies: the gate must never panic
// and must always answer one JSON-RPC response frame or a non-empty
// array of them, with a matching Content-Length.
func FuzzGateServeHTTP(f *testing.F) {
	for _, seed := range []string{
		`{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"tag":"tag-1"}}}`,
		`{"jsonrpc":"2.0","id":2,"method":"fx.explain","params":{"query":{"name":"plain"}}}`,
		`[{"jsonrpc":"2.0","id":1,"method":"fx.health"},{"jsonrpc":"2.0","id":2,"method":"fx.nope"}]`,
		`{"jsonrpc":"2.0","id":3,"method":"fx.retrieveBatch","params":{"queries":[{"tag":"tag-0"},{"bad":"x"}]}}`,
		`{"jsonrpc":"2.0","method":"fx.retrieve","params":{"query":{"name":"<b>&amp;</b>"}}}`,
		`[]`, `[1]`, `{`, ``, `null`, `"x"`, `{"jsonrpc":"2.0","id":{},"method":"fx.health"}`,
	} {
		f.Add([]byte(seed))
	}
	g := newTestGate(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(g, "key", string(body))
		out := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(out)) {
			t.Fatalf("Content-Length %q, body %d bytes", cl, len(out))
		}
		var frames []map[string]json.RawMessage
		if len(out) > 0 && out[0] == '[' {
			if err := json.Unmarshal(out, &frames); err != nil || len(frames) == 0 {
				t.Fatalf("batch answer is no non-empty frame array (%v): %s", err, out)
			}
		} else {
			var one map[string]json.RawMessage
			if err := json.Unmarshal(out, &one); err != nil {
				t.Fatalf("answer is no JSON frame (%v): %s", err, out)
			}
			frames = append(frames, one)
		}
		for _, fr := range frames {
			_, hasResult := fr["result"]
			_, hasError := fr["error"]
			if string(fr["jsonrpc"]) != `"2.0"` || hasResult == hasError {
				t.Fatalf("not a JSON-RPC 2.0 response frame: %s", out)
			}
			if hasError {
				var e client.ErrorObject
				if err := json.Unmarshal(fr["error"], &e); err != nil {
					t.Fatalf("error member does not decode: %v", err)
				}
			}
		}
	})
}
