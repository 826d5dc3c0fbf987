package telemetry

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fxdist/internal/obs"
)

// newLog returns a log under a test-unique backend label (the mirrored
// counters live in the shared default registry).
func newLog(t *testing.T, cfg Config) *EventLog {
	t.Helper()
	return NewEventLog("telemetry-test-"+t.Name(), cfg)
}

// fold offers one healthy record of shape and returns it as the folds
// after the log would see it.
func fold(l *EventLog, shape string, mutate ...func(*obs.QueryRecord)) *obs.QueryRecord {
	rec := &obs.QueryRecord{Shape: shape, Elapsed: time.Millisecond, RQ: 4, Bound: 1, MaxDeviceBuckets: 1}
	for _, m := range mutate {
		m(rec)
	}
	l.Fold(rec)
	return rec
}

func TestFoldKeepRules(t *testing.T) {
	slow := func(shape string) time.Duration {
		if shape == "s*" {
			return 5 * time.Millisecond
		}
		return 0
	}
	cases := []struct {
		name   string
		shape  string
		mutate func(*obs.QueryRecord)
		want   []string
	}{
		{"healthy, no sampling", "**", nil, nil},
		{"error", "**", func(r *obs.QueryRecord) { r.Err = "boom" }, []string{obs.KeepError}},
		{"partial", "**", func(r *obs.QueryRecord) { r.Partial = true }, []string{obs.KeepError}},
		{"slo slow", "s*", func(r *obs.QueryRecord) { r.Elapsed = 6 * time.Millisecond }, []string{obs.KeepSlow}},
		{"within slo", "s*", func(r *obs.QueryRecord) { r.Elapsed = 4 * time.Millisecond }, nil},
		{"bound violation", "**", func(r *obs.QueryRecord) { r.BoundViolation = true }, []string{obs.KeepBound}},
		{"all three", "s*", func(r *obs.QueryRecord) {
			r.Err, r.Elapsed, r.BoundViolation = "boom", time.Second, true
		}, []string{obs.KeepError, obs.KeepSlow, obs.KeepBound}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newLog(t, Config{Capacity: 8, SlowFor: slow})
			var mutate []func(*obs.QueryRecord)
			if c.mutate != nil {
				mutate = append(mutate, c.mutate)
			}
			rec := fold(l, c.shape, mutate...)
			if !reflect.DeepEqual(rec.Keep, c.want) {
				t.Fatalf("keep = %v, want %v", rec.Keep, c.want)
			}
			wantKept := 0
			if c.want != nil {
				wantKept = 1
			}
			if got := len(l.Recent(8)); got != wantKept {
				t.Fatalf("%d events kept, want %d", got, wantKept)
			}
			wantSlow := c.shape == "s*" && rec.Elapsed > 5*time.Millisecond
			if rec.Slow != wantSlow || (wantSlow && rec.SLOTarget != 5*time.Millisecond) {
				t.Errorf("slow=%v target=%v, want slow=%v", rec.Slow, rec.SLOTarget, wantSlow)
			}
		})
	}
}

func TestFoldHeadThenOneInN(t *testing.T) {
	l := newLog(t, Config{Capacity: 64, HeadPerShape: 3, SampleEvery: 4})
	var kept []string
	for i := 1; i <= 12; i++ {
		rec := fold(l, "*s")
		kept = append(kept, fmt.Sprint(rec.Keep))
	}
	want := []string{
		"[head]", "[head]", "[head]", // 1..3: the head of a new shape
		"[sample]", "[]", "[]", "[]", // 4, then 8 and 12: 1 in 4
		"[sample]", "[]", "[]", "[]",
		"[sample]",
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("keep sequence %v\nwant %v", kept, want)
	}
	// A second shape gets its own head.
	if rec := fold(l, "ss"); fmt.Sprint(rec.Keep) != "[head]" {
		t.Errorf("new shape keep = %v, want [head]", rec.Keep)
	}
	st := l.Stats()
	if st.Seen != 13 || st.Kept != 7 || len(st.Shapes) != 2 {
		t.Errorf("stats %+v, want 13 seen / 7 kept over 2 shapes", st)
	}
	if st.Shapes[0].Shape != "*s" || st.Shapes[0].Seen != 12 || st.Shapes[0].Kept != 6 {
		t.Errorf("shape row %+v, want *s 12 seen / 6 kept", st.Shapes[0])
	}
}

func TestFoldSkipsUnplannedAndStampsBackend(t *testing.T) {
	l := newLog(t, Config{Capacity: 4, HeadPerShape: 8})
	fold(l, "", func(r *obs.QueryRecord) { r.Err = "bad query" })
	if st := l.Stats(); st.Seen != 0 {
		t.Fatalf("a record without a shape was sampled: %+v", st)
	}
	rec := fold(l, "s")
	if rec.Backend != "" {
		t.Errorf("the log stamped the shared record's backend %q; only its copy is stamped", rec.Backend)
	}
	if got := l.Recent(1); len(got) != 1 || got[0].Backend != l.backend {
		t.Errorf("kept copy %+v, want backend %q", got, l.backend)
	}
}

// elapsedOf lists the kept events' Elapsed in milliseconds, newest
// first.
func elapsedOf(evs []obs.QueryRecord) []int {
	out := make([]int, len(evs))
	for i, ev := range evs {
		out[i] = int(ev.Elapsed / time.Millisecond)
	}
	return out
}

func foldN(l *EventLog, from, to int) {
	for i := from; i <= to; i++ {
		fold(l, "*", func(r *obs.QueryRecord) { r.Elapsed = time.Duration(i) * time.Millisecond })
	}
}

func TestRingWraparound(t *testing.T) {
	l := newLog(t, Config{Capacity: 4, HeadPerShape: 100})
	foldN(l, 1, 6)
	if got, want := elapsedOf(l.Recent(10)), []int{6, 5, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after wraparound Recent = %v, want %v", got, want)
	}
	if got, want := elapsedOf(l.Recent(2)), []int{6, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Recent(2) = %v, want %v", got, want)
	}
	if l.Recent(0) != nil {
		t.Error("Recent(0) returned events")
	}
}

func TestConfigureResizesNewestFirst(t *testing.T) {
	l := newLog(t, Config{Capacity: 8, HeadPerShape: 100})
	foldN(l, 1, 6)
	l.Configure(Config{Capacity: 3, HeadPerShape: 100})
	if got, want := elapsedOf(l.Recent(10)), []int{6, 5, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shrunk ring = %v, want the newest %v", got, want)
	}
	// Order survives further appends into the resized ring.
	foldN(l, 7, 7)
	if got, want := elapsedOf(l.Recent(10)), []int{7, 6, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after append = %v, want %v", got, want)
	}
	l.Configure(Config{Capacity: 5, HeadPerShape: 100})
	foldN(l, 8, 9)
	if got, want := elapsedOf(l.Recent(10)), []int{9, 8, 7, 6, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("grown ring = %v, want %v", got, want)
	}
	// Per-shape head counters survive a Configure: the head is spent.
	l.Configure(Config{Capacity: 5, HeadPerShape: 9})
	if rec := fold(l, "*"); rec.Keep != nil {
		t.Errorf("head re-granted after Configure: keep %v", rec.Keep)
	}
	if st := l.Stats(); st.Capacity != 5 || st.HeadPerShape != 9 {
		t.Errorf("stats after Configure %+v", st)
	}
}

func TestSubscribeSlowFollowerDrops(t *testing.T) {
	l := newLog(t, Config{Capacity: 256, HeadPerShape: 1000})
	ch, cancel := l.Subscribe()
	defer cancel()
	const offered = 200 // past the 64-event subscriber buffer
	done := make(chan struct{})
	go func() {
		foldN(l, 1, offered)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Fold blocked on a subscriber that never reads")
	}
	got := 0
	for len(ch) > 0 {
		ev := <-ch
		got++
		if int(ev.Elapsed/time.Millisecond) != got {
			t.Fatalf("event %d arrived out of order: %v", got, ev.Elapsed)
		}
	}
	if got == 0 || got >= offered {
		t.Errorf("slow follower received %d of %d events, want a buffered prefix", got, offered)
	}
	if l.Stats().Kept != offered {
		t.Errorf("kept %d, want %d: dropping for a follower must not drop from the log", l.Stats().Kept, offered)
	}
	cancel()
	foldN(l, 1, 1)
	if len(ch) != 0 {
		t.Error("cancelled subscription still receives events")
	}
}

func TestReset(t *testing.T) {
	l := newLog(t, Config{Capacity: 4, HeadPerShape: 2, SampleEvery: 0})
	foldN(l, 1, 5)
	l.Reset()
	if st := l.Stats(); st.Seen != 0 || st.Kept != 0 || len(st.Shapes) != 0 || st.Capacity != 4 {
		t.Fatalf("after Reset: %+v", st)
	}
	if got := l.Recent(10); len(got) != 0 {
		t.Fatalf("after Reset Recent = %v", got)
	}
	// The head is granted again: sampling state is gone, config is kept.
	if rec := fold(l, "*"); fmt.Sprint(rec.Keep) != "[head]" {
		t.Errorf("first record after Reset kept %v, want [head]", rec.Keep)
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *EventLog
	l.Fold(&obs.QueryRecord{Shape: "s"})
	l.Configure(Config{})
	l.Reset()
	if l.Recent(5) != nil || l.Stats().Seen != 0 {
		t.Error("nil log returned data")
	}
	ch, cancel := l.Subscribe()
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil log subscription is open")
	}
}
