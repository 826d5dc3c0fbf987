package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fxdist"
)

// rateLimitingServer rejects the first reject calls with a JSON-RPC
// 429-class error carrying a Retry-After hint, then answers.
func rateLimitingServer(t *testing.T, reject int, hint time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		if int(n) <= reject {
			e := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant over budget")
			e.RetryAfter = hint
			w.WriteHeader(http.StatusTooManyRequests)
			resp := Response{JSONRPC: "2.0", ID: req.ID, Error: FromError(e)}
			if err := json.NewEncoder(w).Encode(&resp); err != nil {
				t.Error(err)
			}
			return
		}
		result, _ := json.Marshal(RetrieveResult{APIVersion: APIVersion, Records: [][]string{{"a", "b"}}})
		resp := Response{JSONRPC: "2.0", ID: req.ID, Result: result}
		if err := json.NewEncoder(w).Encode(&resp); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRetryOn429HonorsRetryAfter(t *testing.T) {
	srv, calls := rateLimitingServer(t, 2, 10*time.Millisecond)
	c := New(srv.URL, WithRetryOn429(4, time.Second))
	defer c.Close()

	start := time.Now()
	res, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("got %v", res.Records)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	// Two rejections, each with a 10ms hint: the client must have slept
	// at least that long in total.
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("client returned after %v, ignored Retry-After", waited)
	}
}

func TestRetryOn429DisabledByDefault(t *testing.T) {
	srv, calls := rateLimitingServer(t, 1, time.Millisecond)
	c := New(srv.URL)
	defer c.Close()

	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeRateLimited {
		t.Fatalf("got %v, want rate_limited", err)
	}
	if fe.RetryAfter != time.Millisecond {
		t.Fatalf("RetryAfter %v not surfaced", fe.RetryAfter)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry configured)", got)
	}
}

func TestRetryOn429RespectsAttemptCeiling(t *testing.T) {
	srv, calls := rateLimitingServer(t, 100, time.Millisecond)
	c := New(srv.URL, WithRetryOn429(3, time.Second))
	defer c.Close()

	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeRateLimited {
		t.Fatalf("got %v, want rate_limited", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want exactly maxAttempts", got)
	}
}

func TestRetryOn429RespectsWaitBudget(t *testing.T) {
	// The server demands 10s per retry; a 50ms budget must give up
	// immediately rather than sleep.
	srv, calls := rateLimitingServer(t, 100, 10*time.Second)
	c := New(srv.URL, WithRetryOn429(5, 50*time.Millisecond))
	defer c.Close()

	start := time.Now()
	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	if err == nil {
		t.Fatal("succeeded against a permanently limiting server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client slept %v past its wait budget", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (hint exceeds budget)", got)
	}
}

func TestRetryOn429DoesNotRetryOtherErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		var req Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		resp := Response{JSONRPC: "2.0", ID: req.ID,
			Error: FromError(fxdist.NewError(fxdist.ErrCodeInvalidQuery, "unknown field"))}
		_ = json.NewEncoder(w).Encode(&resp)
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetryOn429(5, time.Second))
	defer c.Close()

	_, err := c.Retrieve(context.Background(), map[string]string{"bogus": "x"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInvalidQuery {
		t.Fatalf("got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls for a non-retryable error", got)
	}
}

func TestRetryOn429ContextCancel(t *testing.T) {
	srv, _ := rateLimitingServer(t, 100, 10*time.Second)
	c := New(srv.URL, WithRetryOn429(5, 0)) // no wait cap: only ctx stops it
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Retrieve(ctx, map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeTimeout {
		t.Fatalf("got %v, want timeout from the canceled wait", err)
	}
}

// staticServer answers every call with the same status, headers and
// body.
func staticServer(t *testing.T, status int, header http.Header, body string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range header {
			w.Header()[k] = v
		}
		w.WriteHeader(status)
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL)
	t.Cleanup(c.Close)
	return c
}

// TestErrorClassification pins how each kind of answer folds onto the
// taxonomy: a result of the wrong shape is an internal error, a
// non-JSON rejection keeps its Retry-After, and an error frame comes
// back through ErrorObject.Err.
func TestErrorClassification(t *testing.T) {
	ctx := context.Background()
	query := map[string]string{"part": "p1"}
	frame := func(e *fxdist.Error) string {
		b, err := json.Marshal(Response{JSONRPC: "2.0", ID: json.RawMessage("1"), Error: FromError(e)})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	device := fxdist.NewError(fxdist.ErrCodeDeviceFailure, "device gone")
	device.Device, device.TraceID = 3, 77
	limited := fxdist.NewError(fxdist.ErrCodeRateLimited, "slow down")
	retryAfter := http.Header{"Retry-After": {"2"}}

	cases := []struct {
		name    string
		status  int
		header  http.Header
		body    string
		call    func(*Client) error
		code    fxdist.ErrorCode
		message string
		retry   time.Duration
		device  int
	}{
		{name: "retrieve result of the wrong type", status: 200, body: `{"jsonrpc":"2.0","id":1,"result":"oops"}`,
			code: fxdist.ErrCodeInternal, message: "malformed result: "},
		{name: "retrieve records of the wrong type", status: 200, body: `{"jsonrpc":"2.0","id":1,"result":{"records":[[1]]}}`,
			code: fxdist.ErrCodeInternal, message: "malformed result: "},
		{name: "explain result of the wrong type", status: 200, body: `{"jsonrpc":"2.0","id":1,"result":[]}`,
			call: func(c *Client) error { _, err := c.Explain(ctx, query); return err },
			code: fxdist.ErrCodeInternal, message: "malformed result: "},
		{name: "no result member", status: 200, body: `{"jsonrpc":"2.0","id":1}`,
			code: fxdist.ErrCodeInternal, message: "malformed result: "},
		{name: "non-JSON 429 with Retry-After", status: 429, header: retryAfter, body: "too many requests\n",
			code: fxdist.ErrCodeOverloaded, message: "HTTP 429: too many requests", retry: 2 * time.Second},
		{name: "non-JSON 502", status: 502, body: "<html>bad gateway</html>",
			code: fxdist.ErrCodeInternal, message: "HTTP 502: <html>"},
		{name: "jsonrpc member of the wrong type", status: 200, body: `{"jsonrpc":2,"id":1,"result":{}}`,
			code: fxdist.ErrCodeInternal, message: "HTTP 200: "},
		{name: "error frame", status: 200, body: frame(device),
			code: fxdist.ErrCodeDeviceFailure, message: "device gone", device: 3},
		{name: "error frame with the hint in the header", status: 429, header: retryAfter, body: frame(limited),
			code: fxdist.ErrCodeRateLimited, message: "slow down", retry: 2 * time.Second},
		{name: "error member of the wrong type", status: 200, body: `{"jsonrpc":"2.0","id":1,"error":"boom"}`,
			code: fxdist.ErrCodeInternal, message: "HTTP 200: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := staticServer(t, tc.status, tc.header, tc.body)
			call := tc.call
			if call == nil {
				call = func(c *Client) error { _, err := c.Retrieve(ctx, query); return err }
			}
			var fe *fxdist.Error
			if err := call(c); !errors.As(err, &fe) {
				t.Fatalf("got %T %v, want *fxdist.Error", err, err)
			}
			if fe.Code != tc.code || !strings.HasPrefix(fe.Message, tc.message) || fe.RetryAfter != tc.retry {
				t.Fatalf("got %s %q retry %v, want %s %q... retry %v", fe.Code, fe.Message, fe.RetryAfter, tc.code, tc.message, tc.retry)
			}
			if tc.device != 0 && (fe.Device != tc.device || fe.TraceID != 77) {
				t.Fatalf("device %d trace %d lost in the fold", fe.Device, fe.TraceID)
			}
		})
	}
}

// TestOversizedResponseSaysSo pins the response limit: a declared
// length past it fails before any byte is read, an undeclared one at
// the limit, and either way the error names the limit instead of
// quoting a cut-off body.
func TestOversizedResponseSaysSo(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxResponseBytes+1))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"jsonrpc":"2.0"`)
	}))
	defer srv.Close()
	c := New(srv.URL)
	defer c.Close()
	_, err := c.Retrieve(context.Background(), map[string]string{"part": "p1"})
	var fe *fxdist.Error
	if !errors.As(err, &fe) || fe.Code != fxdist.ErrCodeInternal || !strings.Contains(fe.Message, "response exceeded 64 MiB") {
		t.Fatalf("got %v, want an internal error saying the response exceeded 64 MiB", err)
	}

	// Without Content-Length the read stops one byte past the limit.
	const limit = 1 << 10
	for _, n := range []int{limit, limit + 1} {
		res := &http.Response{ContentLength: -1, Body: io.NopCloser(strings.NewReader(strings.Repeat("x", n)))}
		data, err := readBody(res, limit)
		if tooLarge := errors.As(err, new(errTooLarge)); tooLarge != (n > limit) || (!tooLarge && len(data) != n) {
			t.Fatalf("%d-byte body under a %d-byte limit: %d bytes, %v", n, limit, len(data), err)
		}
	}
}
