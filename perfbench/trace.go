package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. Spans are recorded only by the benchmark's own code, around
// its calls into each layer: the client's HTTP round trip, the gate's
// HTTP handler, and the benchmark's calls to RetrieveContext, Insert,
// Sync and Rescale. In-process answers add their RetrieveResult.Stages
// as child spans. Spans stay in memory and are written out at the end.

// span is one timed interval; Start and End are nanoseconds since the
// recorder's base time. Parent 0 marks a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the spans kept in memory; later ones are counted but
// dropped.
const maxSpans = 1 << 20

// recorder collects spans while enabled. A nil recorder records
// nothing. While enabled, every other operation is traced (sample), so
// traced and untraced operations interleave under the same load and the
// difference of their service times is the tracing overhead.
type recorder struct {
	on      atomic.Bool
	flip    atomic.Uint64
	base    time.Time
	nextID  atomic.Uint64
	dropped atomic.Int64

	mu      sync.Mutex
	spans   []span
	service [2]latencies // [0] untraced, [1] traced operations
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// sample reports whether the next operation is traced.
func (r *recorder) sample() bool { return r.enabled() && r.flip.Add(1)%2 == 0 }

// served records one sampled-window operation's service time.
func (r *recorder) served(traced bool, d time.Duration) {
	if !r.enabled() {
		return
	}
	i := 0
	if traced {
		i = 1
	}
	r.mu.Lock()
	r.service[i] = append(r.service[i], d)
	r.mu.Unlock()
}

// overheadPct is the traced minus the untraced median service time, in
// percent of the untraced one.
func (r *recorder) overheadPct() (pctDiff float64, untraced, traced time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	untraced, traced = pct(r.service[0].sorted(), 0.5), pct(r.service[1].sorted(), 0.5)
	if untraced <= 0 {
		return 0, untraced, traced
	}
	return 100 * float64(traced-untraced) / float64(untraced), untraced, traced
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals, each clipped to
// [lo, hi].
func covered(lo, hi int64, ivs []span) int64 {
	type iv struct{ a, b int64 }
	clipped := make([]iv, 0, len(ivs))
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, curA, curB int64
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curA, curB, open = c.a, c.b, true
		case c.a <= curB:
			curB = max(curB, c.b)
		default:
			total += curB - curA
			curA, curB = c.a, c.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is s's duration minus the part of it its children cover;
// overlapping children are counted once.
func selfTime(s span, children []span) time.Duration {
	return time.Duration(s.End - s.Start - covered(s.Start, s.End, children))
}

// spanTree indexes spans by parent.
type spanTree struct {
	children map[uint64][]span
}

func newSpanTree(spans []span) spanTree {
	t := spanTree{children: make(map[uint64][]span)}
	for _, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// descendants returns the spans named name below id, not descending
// past a match.
func (t spanTree) descendants(id uint64, name string) []span {
	var out []span
	for _, c := range t.children[id] {
		if c.Name == name {
			out = append(out, c)
			continue
		}
		out = append(out, t.descendants(c.ID, name)...)
	}
	return out
}

// Context plumbing: for a traced request the benchmark puts its span id
// in the request context; the client transport forwards it in a header
// that the gate handler wrapper reads as its parent. Requests without
// it pass through untraced.

type spanKey struct{}

const spanHeader = "X-Perfbench-Span"

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// tracingTransport records a client.http span per round trip, from
// sending the request until the response body is closed, and counts
// response body bytes.
type tracingTransport struct {
	base      http.RoundTripper
	rec       *recorder
	respBytes *atomic.Int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{ID: t.rec.newID(), Parent: parent, Name: "client.http", Start: t.rec.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	res, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	res.Body = &spanBody{ReadCloser: res.Body, t: t, s: s}
	return res, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracingTransport
	s    span
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.rec.now()
		b.t.rec.add(b.s)
		b.t.respBytes.Add(b.n)
	})
	return err
}

// traceHandler records a gate.handler span for each request that
// carries the client's span header, parented by it.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: rec.newID(), Parent: parent, Name: "gate.handler", Start: rec.now()}
		h.ServeHTTP(w, r)
		s.End = rec.now()
		rec.add(s)
	})
}

// byteCounts totals the bytes a set of listeners' connections carried.
type byteCounts struct {
	in, out atomic.Int64
}

// countingListener wraps a device server's listener to count the bytes
// its connections read (requests in) and write (responses out).
type countingListener struct {
	net.Listener
	c *byteCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *byteCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}
