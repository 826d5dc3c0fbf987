package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fxdist"
	"fxdist/client"
)

// maxBodyBytes bounds one HTTP request body (a JSON-RPC frame or an
// array of frames).
const maxBodyBytes = 8 << 20

// ServeHTTP is the gate's RPC endpoint: POST one JSON-RPC 2.0 request
// (or a JSON array of requests — the JSON-RPC batch envelope) with an
// Authorization: Bearer <api-key> header. Connections are persistent:
// plain HTTP/1.1 keep-alive, any number of requests per connection.
//
// HTTP status carries the admission outcome for single frames: 401
// unauthenticated, 429 + Retry-After for rate limits / quota / shed
// rejections, 200 otherwise (method-level failures are JSON-RPC error
// objects, as the spec wants). Batch envelopes are always 200 unless
// unauthenticated; per-frame outcomes ride inside the array.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "fxgate speaks JSON-RPC 2.0 over POST", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		msg := fmt.Sprintf("request body exceeds the %d MiB limit", maxBodyBytes>>20)
		writeResponse(w, http.StatusRequestEntityTooLarge, errorResponse(nil, client.InvalidRequestError(msg)))
		return
	case err != nil:
		writeResponse(w, http.StatusBadRequest, errorResponse(nil, client.ParseError("read body: "+err.Error())))
		return
	}
	t := g.tenants.authenticate(bearerToken(r))
	if t == nil {
		g.metrics.rejected("", "unauthorized")
		e := fxdist.NewError(fxdist.ErrCodeUnauthorized, "unknown or missing API key")
		writeResponse(w, http.StatusUnauthorized, errorResponse(nil, client.FromError(e)))
		return
	}

	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []client.Request
		if err := json.Unmarshal(body, &reqs); err != nil {
			writeResponse(w, http.StatusOK, errorResponse(nil, client.ParseError(err.Error())))
			return
		}
		if len(reqs) == 0 {
			writeResponse(w, http.StatusOK, errorResponse(nil, client.InvalidRequestError("empty batch envelope")))
			return
		}
		responses := make([]response, len(reqs))
		for i := range reqs {
			responses[i], _ = g.serveOne(r, t, &reqs[i])
		}
		writeResponse(w, http.StatusOK, responses)
		return
	}

	var req client.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeResponse(w, http.StatusOK, errorResponse(nil, client.ParseError(err.Error())))
		return
	}
	res, status := g.serveOne(r, t, &req)
	if res.Error != nil && res.Error.Data != nil && res.Error.Data.RetryAfterMillis > 0 {
		secs := int(math.Ceil(float64(res.Error.Data.RetryAfterMillis) / 1000))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeResponse(w, status, res)
}

// serveOne admits and runs one JSON-RPC frame, returning its response
// and the HTTP status a single-frame envelope should carry.
func (g *Gate) serveOne(r *http.Request, t *tenant, req *client.Request) (response, int) {
	if req.JSONRPC != "2.0" || req.Method == "" {
		return errorResponse(req.ID, client.InvalidRequestError("not a JSON-RPC 2.0 request")), http.StatusOK
	}
	h := g.methods.Lookup(req.Method)
	if h == nil {
		e := fxdist.NewError(fxdist.ErrCodeUnknownMethod, "unknown method "+req.Method)
		return errorResponse(req.ID, client.FromError(e)), http.StatusOK
	}

	// Admission, outermost first: token bucket, per-tenant in-flight
	// quota, front-door shed. Each rejection carries a Retry-After.
	cost := requestCost(req)
	if ok, retry := t.take(time.Now(), cost); !ok {
		t.mu.Lock()
		t.rateLimited++
		t.mu.Unlock()
		g.rateLimited.Add(1)
		g.metrics.rejected(t.cfg.Name, "rate_limited")
		e := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant rate limit exceeded")
		e.RetryAfter = maxDuration(retry, time.Second)
		return errorResponse(req.ID, client.FromError(e)), http.StatusTooManyRequests
	}
	if !t.acquire() {
		t.mu.Lock()
		t.quotaRejected++
		t.mu.Unlock()
		g.quotaRejects.Add(1)
		g.metrics.rejected(t.cfg.Name, "quota")
		e := fxdist.NewError(fxdist.ErrCodeRateLimited, "tenant in-flight quota exceeded")
		e.RetryAfter = g.cfg.ShedRetryAfter
		return errorResponse(req.ID, client.FromError(e)), http.StatusTooManyRequests
	}
	defer t.release()
	maxInFlight, shedRetry := g.shedConfig()
	if n := g.inFlight.Add(1); maxInFlight > 0 && n > int64(maxInFlight) {
		g.inFlight.Add(-1)
		t.mu.Lock()
		t.shed++
		t.mu.Unlock()
		g.frontSheds.Add(1)
		g.metrics.rejected(t.cfg.Name, "shed")
		e := fxdist.NewError(fxdist.ErrCodeOverloaded, "gate at max in-flight requests")
		e.RetryAfter = shedRetry
		return errorResponse(req.ID, client.FromError(e)), http.StatusTooManyRequests
	}
	defer func() {
		g.metrics.inflight.Set(float64(g.inFlight.Add(-1)))
	}()
	g.metrics.inflight.Set(float64(g.inFlight.Load()))

	t.mu.Lock()
	t.requests++
	t.mu.Unlock()
	g.metrics.request(t.cfg.Name, req.Method)

	start := time.Now()
	result, herr := h.ServeJSONRPC(r.Context(), t, req.Params)
	g.metrics.latency.ObserveSince(start)
	if herr != nil {
		if herr.Code == fxdist.ErrCodeOverloaded {
			g.metrics.rejected(t.cfg.Name, "burn")
		}
		status := http.StatusOK
		switch herr.Code {
		case fxdist.ErrCodeRateLimited, fxdist.ErrCodeOverloaded:
			status = http.StatusTooManyRequests
		case fxdist.ErrCodeUnauthorized:
			status = http.StatusUnauthorized
		}
		return errorResponse(req.ID, client.FromError(herr)), status
	}
	return response{JSONRPC: "2.0", ID: req.ID, Result: result}, http.StatusOK
}

// requestCost prices a frame in rate-limiter tokens: one per query.
func requestCost(req *client.Request) float64 {
	if req.Method != client.MethodRetrieveBatch {
		return 1
	}
	var p client.BatchParams
	if err := json.Unmarshal(req.Params, &p); err != nil || len(p.Queries) == 0 {
		return 1
	}
	return float64(len(p.Queries))
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// response is one JSON-RPC response frame as the gate writes it: the
// JSON shape of client.Response, with Result holding the handler's value
// so that the result is marshalled once, inside its frame.
type response struct {
	JSONRPC string              `json:"jsonrpc"`
	ID      json.RawMessage     `json:"id,omitempty"`
	Result  any                 `json:"result,omitempty"`
	Error   *client.ErrorObject `json:"error,omitempty"`
}

func errorResponse(id json.RawMessage, e *client.ErrorObject) response {
	return response{JSONRPC: "2.0", ID: id, Error: e}
}

// maxPooledBuffer caps the response buffers kept for reuse, so one
// whole-relation answer does not pin megabytes in the pool.
const maxPooledBuffer = 1 << 20

var responseBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeResponse marshals v, one response frame or a batch array of
// them, once, into a pooled buffer and writes it with its
// Content-Length. The bytes are json.Marshal's: HTML characters,
// U+2028 and U+2029 escaped, invalid UTF-8 as \ufffd. A value that
// cannot be marshalled is answered with an internal-error frame and
// HTTP 500.
func writeResponse(w http.ResponseWriter, status int, v any) {
	buf := responseBuffers.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBuffer {
			responseBuffers.Put(buf)
		}
	}()
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		e := fxdist.NewError(fxdist.ErrCodeInternal, "marshal response: "+err.Error())
		_ = json.NewEncoder(buf).Encode(errorResponse(nil, client.FromError(e))) // strings and ints only: cannot fail
	}
	out := bytes.TrimSuffix(buf.Bytes(), []byte("\n")) // Encode ends the value with a newline; Marshal does not
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(status)
	_, _ = w.Write(out) // a client that went away is no error of the gate's
}
