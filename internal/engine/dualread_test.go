package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"

	"fxdist/internal/mkhash"
)

func dualResult(recs ...mkhash.Record) Result {
	return Result{Records: recs}
}

func leg(res Result, err error, delay time.Duration) func(context.Context, mkhash.PartialMatch) (Result, error) {
	return func(ctx context.Context, _ mkhash.PartialMatch) (Result, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		return res, err
	}
}

func TestDualReaderFastLegWins(t *testing.T) {
	recs := dualResult(mkhash.Record{"a", "b"}, mkhash.Record{"c", "d"})
	d := &DualReader{
		Old: leg(recs, nil, 0),
		New: leg(recs, nil, 50*time.Millisecond),
	}
	res, err := d.Retrieve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("got %d records", len(res.Records))
	}
	d.Drain()
	st := d.Stats()
	if st.OldWins != 1 || st.NewWins != 0 {
		t.Errorf("wins old=%d new=%d, want the fast old leg", st.OldWins, st.NewWins)
	}
	if st.Started != 1 || st.Completed != 1 || st.Mismatches != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestDualReaderFallsBackWhenWinnerFails(t *testing.T) {
	recs := dualResult(mkhash.Record{"x"})
	d := &DualReader{
		Old: leg(Result{}, errors.New("old epoch down"), 0),
		New: leg(recs, nil, 10*time.Millisecond),
	}
	res, err := d.Retrieve(context.Background(), nil)
	if err != nil {
		t.Fatalf("fallback leg should have answered: %v", err)
	}
	if len(res.Records) != 1 || res.Records[0][0] != "x" {
		t.Fatalf("got %v", res.Records)
	}
	d.Drain()
	if st := d.Stats(); st.NewWins != 1 || st.Completed != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestDualReaderBothLegsFail(t *testing.T) {
	fastErr := errors.New("fast failure")
	d := &DualReader{
		Old: leg(Result{}, fastErr, 0),
		New: leg(Result{}, errors.New("slow failure"), 10*time.Millisecond),
	}
	if _, err := d.Retrieve(context.Background(), nil); err == nil {
		t.Fatal("both legs failed but Retrieve succeeded")
	} else if !errors.Is(err, fastErr) {
		t.Fatalf("got %v, want the first error", err)
	}
	d.Drain()
	if st := d.Stats(); st.Completed != 1 || st.OldWins+st.NewWins != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestDualReaderLoserErrorIsNotMismatch(t *testing.T) {
	d := &DualReader{
		Old: leg(dualResult(mkhash.Record{"a"}), nil, 0),
		New: leg(Result{}, errors.New("chaos"), 10*time.Millisecond),
	}
	if _, err := d.Retrieve(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if st := d.Stats(); st.Mismatches != 0 {
		t.Errorf("loser error counted as mismatch: %+v", st)
	}
}

func TestDualReaderMismatchDetectedAcrossOrder(t *testing.T) {
	// Same multiset in a different order must NOT trip the check...
	a := dualResult(mkhash.Record{"a", "b"}, mkhash.Record{"c", "d"})
	b := dualResult(mkhash.Record{"c", "d"}, mkhash.Record{"a", "b"})
	d := &DualReader{
		Old: leg(a, nil, 0),
		New: leg(b, nil, 5*time.Millisecond),
	}
	if _, err := d.Retrieve(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if st := d.Stats(); st.Mismatches != 0 {
		t.Errorf("reordered identical results flagged: %+v", st)
	}

	// ...while an actually divergent answer must.
	var gotMismatch mkhash.PartialMatch
	called := false
	d2 := &DualReader{
		Old: leg(a, nil, 0),
		New: leg(dualResult(mkhash.Record{"a", "b"}), nil, 5*time.Millisecond),
		OnMismatch: func(pm mkhash.PartialMatch, winner, loser Result) {
			called = true
			gotMismatch = pm
			if len(winner.Records) != 2 || len(loser.Records) != 1 {
				t.Errorf("handler got winner %d / loser %d records", len(winner.Records), len(loser.Records))
			}
		},
	}
	v := "k"
	pm := mkhash.PartialMatch{&v, nil}
	if _, err := d2.Retrieve(context.Background(), pm); err != nil {
		t.Fatal(err)
	}
	d2.Drain()
	if st := d2.Stats(); st.Mismatches != 1 {
		t.Errorf("divergent answers not counted: %+v", st)
	}
	if !called || len(gotMismatch) != 2 || gotMismatch[0] == nil || *gotMismatch[0] != "k" {
		t.Errorf("OnMismatch not invoked with the query: called=%v pm=%v", called, gotMismatch)
	}
}

// TestDualReaderMismatchWinnerIsStableCopy pins the OnMismatch
// contract: the winner handed to the handler is a deep copy taken
// before Retrieve returned, so a caller releasing the real result's
// pooled lease (and the pool rewriting its memory) after Retrieve
// cannot corrupt what the handler sees.
func TestDualReaderMismatchWinnerIsStableCopy(t *testing.T) {
	winnerRecs := []mkhash.Record{{"a", "1"}}
	got := make(chan Result, 1)
	gate := make(chan struct{})
	d := &DualReader{
		Old: leg(Result{Records: winnerRecs}, nil, 0),
		New: func(ctx context.Context, _ mkhash.PartialMatch) (Result, error) {
			<-gate
			return dualResult(mkhash.Record{"divergent"}), nil
		},
		OnMismatch: func(_ mkhash.PartialMatch, winner, _ Result) { got <- winner },
	}
	res, err := d.Retrieve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The caller owns res now and may Release it — model the pool
	// rewriting the backing memory before the cross-check runs.
	res.Records[0][0] = "scribbled"
	close(gate)
	d.Drain()
	w := <-got
	if len(w.Records) != 1 || w.Records[0][0] != "a" || w.Records[0][1] != "1" {
		t.Fatalf("OnMismatch winner aliases released memory: %v", w.Records)
	}
}

func TestMultisetDigestProperties(t *testing.T) {
	a := []mkhash.Record{{"ab", "c"}, {"x"}}
	b := []mkhash.Record{{"x"}, {"ab", "c"}}
	if multisetDigest(a) != multisetDigest(b) {
		t.Error("digest is order-sensitive")
	}
	// Field boundaries matter: ["ab","c"] vs ["a","bc"].
	c := []mkhash.Record{{"a", "bc"}, {"x"}}
	if multisetDigest(a) == multisetDigest(c) {
		t.Error("digest ignores field boundaries")
	}
	if multisetDigest(nil) != 0 {
		t.Error("empty digest not zero")
	}
}

func TestSortedRecordsCanonical(t *testing.T) {
	in := []mkhash.Record{{"b"}, {"a", "z"}, {"a"}}
	got := SortedRecords(in)
	want := []mkhash.Record{{"a"}, {"a", "z"}, {"b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// The input is untouched.
	if !reflect.DeepEqual(in, []mkhash.Record{{"b"}, {"a", "z"}, {"a"}}) {
		t.Fatal("SortedRecords mutated its input")
	}
}

// TestMultisetDigestMatchesFNV pins the inlined digest to its hash/fnv
// form: per record, FNV-1a 64 over each field's uvarint length and then
// its bytes, summed mod 2^64.
func TestMultisetDigestMatchesFNV(t *testing.T) {
	reference := func(recs []mkhash.Record) uint64 {
		var sum uint64
		var buf [binary.MaxVarintLen64]byte
		for _, r := range recs {
			h := fnv.New64a()
			for _, f := range r {
				h.Write(buf[:binary.PutUvarint(buf[:], uint64(len(f)))])
				h.Write([]byte(f))
			}
			sum += h.Sum64()
		}
		return sum
	}
	long := strings.Repeat("long field ", 20) // length prefix > 127: two varint bytes
	cases := [][]mkhash.Record{
		nil,
		{{}},
		{{""}},
		{{"ab", "c"}, {"x"}},
		{{"unicode ✓", "\xff\xfe\x00"}, {long, ""}},
	}
	for _, recs := range cases {
		if got, want := multisetDigest(recs), reference(recs); got != want {
			t.Errorf("multisetDigest(%q) = %#x, hash/fnv form gives %#x", recs, got, want)
		}
	}
}
