package rebalance

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/persist"
)

// fakeTransport simulates a fleet of device servers in memory: per-device
// current partitions, prepared flags, installed next-epoch buckets, and
// cutover/abort broadcasts. An optional fault hook fails operations.
type fakeTransport struct {
	mu        sync.Mutex
	buckets   map[int]map[int][]mkhash.Record // dev -> bucket -> records
	prepared  map[int]bool
	installed map[int]map[int][]mkhash.Record
	cut       map[int]bool
	aborted   map[int]bool
	fetches   map[int]int // bucket -> times fetched
	fault     func(op string, dev int) error
}

func newFakeTransport(parts []map[int][]mkhash.Record) *fakeTransport {
	ft := &fakeTransport{
		buckets:   make(map[int]map[int][]mkhash.Record),
		prepared:  make(map[int]bool),
		installed: make(map[int]map[int][]mkhash.Record),
		cut:       make(map[int]bool),
		aborted:   make(map[int]bool),
		fetches:   make(map[int]int),
	}
	for dev, part := range parts {
		ft.buckets[dev] = part
	}
	return ft
}

func (ft *fakeTransport) fail(op string, dev int) error {
	if ft.fault == nil {
		return nil
	}
	return ft.fault(op, dev)
}

func (ft *fakeTransport) Prepare(_ context.Context, dev int, _ decluster.Spec) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("prepare", dev); err != nil {
		return err
	}
	ft.prepared[dev] = true
	return nil
}

func (ft *fakeTransport) FetchBucket(_ context.Context, dev, bucket int) ([]mkhash.Record, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("fetch", dev); err != nil {
		return nil, err
	}
	ft.fetches[bucket]++
	return ft.buckets[dev][bucket], nil
}

func (ft *fakeTransport) InstallBucket(_ context.Context, dev, bucket int, recs []mkhash.Record) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("install", dev); err != nil {
		return err
	}
	if ft.installed[dev] == nil {
		ft.installed[dev] = make(map[int][]mkhash.Record)
	}
	ft.installed[dev][bucket] = recs
	return nil
}

func (ft *fakeTransport) CutoverDevice(_ context.Context, dev int) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("cutover", dev); err != nil {
		return err
	}
	ft.cut[dev] = true
	return nil
}

func (ft *fakeTransport) AbortRescale(_ context.Context, dev int) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.aborted[dev] = true
	return nil
}

// growFixture builds a Modulo 2→4 rescale over a 4x4 grid with one
// record per bucket, partitioned under the old allocator.
func growFixture(t *testing.T) (oldSpec, newSpec decluster.Spec, parts []map[int][]mkhash.Record, plan RescalePlan) {
	t.Helper()
	oldSpec = decluster.Spec{Sizes: []int{4, 4}, M: 2, Method: decluster.MethodModulo}
	var err error
	newSpec, err = oldSpec.Rescaled(4)
	if err != nil {
		t.Fatal(err)
	}
	oldAlloc, err := oldSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err = PlanRescale(oldAlloc, newAlloc)
	if err != nil {
		t.Fatal(err)
	}
	fs := oldAlloc.FileSystem()
	parts = make([]map[int][]mkhash.Record, 4) // sized for the union
	for i := range parts {
		parts[i] = make(map[int][]mkhash.Record)
	}
	fs.EachBucket(func(b []int) {
		dev := oldAlloc.Device(b)
		idx := fs.Linear(b)
		parts[dev][idx] = []mkhash.Record{{fmt.Sprintf("r-%d", idx)}}
	})
	return oldSpec, newSpec, parts, plan
}

func TestDriverGrowHappyPath(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	ft := newFakeTransport(parts)
	journal := filepath.Join(t.TempDir(), "rescale.journal")
	var dualEntered bool
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		JournalPath:   journal,
		EnterDualRead: func(context.Context) error { dualEntered = true; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !dualEntered {
		t.Error("EnterDualRead never called")
	}
	if got := d.Status(); got.Phase != persist.RescaleDone || got.Copied != len(plan.Moves) {
		t.Errorf("status %+v, want done with %d copied", got, len(plan.Moves))
	}
	// Every move landed on its planned destination with the old owner's
	// records, and every device in the union saw the cutover broadcast.
	for _, mv := range plan.Moves {
		recs := ft.installed[mv.To][mv.Bucket]
		if len(recs) != 1 || recs[0][0] != fmt.Sprintf("r-%d", mv.Bucket) {
			t.Errorf("bucket %d on device %d: got %v", mv.Bucket, mv.To, recs)
		}
	}
	for dev := 0; dev < 4; dev++ {
		if !ft.cut[dev] {
			t.Errorf("device %d never cut over", dev)
		}
	}
	st, err := persist.LoadRescale(journal)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != persist.RescaleDone {
		t.Errorf("journal phase %q, want done", st.Phase)
	}
}

func TestDriverResumeSkipsJournaledBuckets(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	journal := filepath.Join(t.TempDir(), "rescale.journal")

	// A prior run copied the first half of the moves, then died.
	done := make([]int, 0)
	for _, mv := range plan.Moves[:len(plan.Moves)/2] {
		done = append(done, mv.Bucket)
	}
	if err := persist.SaveRescale(journal, &persist.RescaleState{
		OldSpec: oldSpec, NewSpec: newSpec,
		Phase: persist.RescaleCopying, Done: done,
	}); err != nil {
		t.Fatal(err)
	}

	ft := newFakeTransport(parts)
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft, JournalPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, b := range done {
		if ft.fetches[b] != 0 {
			t.Errorf("bucket %d re-fetched despite journal", b)
		}
	}
	for _, mv := range plan.Moves[len(plan.Moves)/2:] {
		if ft.fetches[mv.Bucket] != 1 {
			t.Errorf("bucket %d fetched %d times, want 1", mv.Bucket, ft.fetches[mv.Bucket])
		}
	}
}

func TestDriverRetriesTransientFaults(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	ft := newFakeTransport(parts)
	failures := map[string]int{}
	ft.fault = func(op string, dev int) error {
		key := fmt.Sprintf("%s-%d", op, dev)
		if failures[key] < 2 {
			failures[key]++
			return errors.New("transient")
		}
		return nil
	}
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		Retries: 4, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("driver did not absorb transient faults: %v", err)
	}
}

// A straggler that fails cutover for longer than one retry budget is
// replayed until it converges, instead of ending the run partial.
func TestDriverReplaysCutoverToStragglers(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	ft := newFakeTransport(parts)
	cutFails := 0
	ft.fault = func(op string, dev int) error {
		if op == "cutover" && dev == 3 && cutFails < 7 {
			cutFails++
			return errors.New("device 3 flapping")
		}
		return nil
	}
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		Retries: 3, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("cutover straggler not replayed to convergence: %v", err)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for dev := 0; dev < 4; dev++ {
		if !ft.cut[dev] {
			t.Errorf("device %d never cut over", dev)
		}
	}
}

// A straggler that never comes back ends the run with ErrPartialCutover
// once Run's context ends, with the other devices cut over and nothing
// rolled back.
func TestDriverPartialCutoverWhenContextEnds(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	ft := newFakeTransport(parts)
	ft.fault = func(op string, dev int) error {
		if op == "cutover" && dev == 3 {
			return errors.New("device 3 partitioned")
		}
		return nil
	}
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		Retries: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := d.Run(ctx); !errors.Is(err, ErrPartialCutover) {
		t.Fatalf("Run returned %v, want ErrPartialCutover", err)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for dev := 0; dev < 3; dev++ {
		if !ft.cut[dev] {
			t.Errorf("device %d never cut over", dev)
		}
		if ft.aborted[dev] {
			t.Errorf("device %d rolled back after a partial cutover", dev)
		}
	}
}

func TestDriverAbortRollsBack(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	ft := newFakeTransport(parts)
	var rolledBack bool
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		GuardPoll:      time.Millisecond,
		Guard:          func() error { return errors.New("not yet") },
		BeforeRollback: func() { rolledBack = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for d.Status().Phase != persist.RescaleDualRead {
		if time.Now().After(deadline) {
			t.Fatalf("never reached dual-read: %+v", d.Status())
		}
		time.Sleep(time.Millisecond)
	}
	d.Abort()
	if err := <-errCh; !errors.Is(err, ErrAborted) {
		t.Fatalf("Run returned %v, want ErrAborted", err)
	}
	if !rolledBack {
		t.Error("BeforeRollback never called")
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for dev := 0; dev < 4; dev++ {
		if !ft.aborted[dev] {
			t.Errorf("device %d never got the abort broadcast", dev)
		}
		if ft.cut[dev] {
			t.Errorf("device %d cut over despite abort", dev)
		}
	}
}

func TestDriverPauseHoldsCopies(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	ft := newFakeTransport(parts)
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Pause()
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	if got := d.Status().Copied; got != 0 {
		t.Fatalf("%d buckets copied while paused", got)
	}
	d.Resume()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := d.Status().Copied; got != len(plan.Moves) {
		t.Fatalf("%d buckets copied after resume, want %d", got, len(plan.Moves))
	}
}

func TestDriverRejectsFinishedJournal(t *testing.T) {
	oldSpec, newSpec, _, _ := growFixture(t)
	journal := filepath.Join(t.TempDir(), "rescale.journal")
	if err := persist.SaveRescale(journal, &persist.RescaleState{
		OldSpec: oldSpec, NewSpec: newSpec, Phase: persist.RescaleDone,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec,
		Transport: newFakeTransport(nil), JournalPath: journal,
	})
	if err == nil {
		t.Fatal("driver adopted a finished journal")
	}
}
