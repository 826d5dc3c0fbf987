package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
)

func durableFixture(t *testing.T, n, m int) (*mkhash.File, decluster.GroupAllocator) {
	t.Helper()
	file := carFile(t, n)
	fs, err := file.FileSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	return file, decluster.MustFX(fs)
}

func sortedKeys(recs []mkhash.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r[0] + "|" + r[1] + "|" + r[2]
	}
	sort.Strings(keys)
	return keys
}

func TestDurableCreateRetrieveMatchesSearch(t *testing.T) {
	file, fx := durableFixture(t, 400, 8)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != file.Len() || c.M() != 8 {
		t.Fatalf("Len=%d M=%d", c.Len(), c.M())
	}
	for _, spec := range []map[string]string{
		{"make": "make3"},
		{"model": "model7", "year": "1987"},
		{},
	} {
		pm, err := file.Spec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		g, w := sortedKeys(got.Records), sortedKeys(want)
		if len(g) != len(w) {
			t.Fatalf("spec %v: durable %d records, search %d", spec, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("spec %v: record sets differ", spec)
			}
		}
	}
}

func TestDurableReopen(t *testing.T) {
	file, fx := durableFixture(t, 250, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	// Insert extra records after creation, sync, close.
	extra := mkhash.Record{"make99", "model99", "1999"}
	if err := c.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 251 {
		t.Fatalf("reopened Len=%d, want 251", re.Len())
	}
	if re.Allocator().Name() != fx.Name() {
		t.Errorf("allocator %q, want %q", re.Allocator().Name(), fx.Name())
	}
	pm, _ := file.Spec(map[string]string{"make": "make99"})
	got, err := re.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || got.Records[0][1] != "model99" {
		t.Errorf("post-reopen retrieve = %v", got.Records)
	}
}

func TestDurableSurvivesTornDeviceLog(t *testing.T) {
	file, fx := durableFixture(t, 300, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Len()
	c.Close()
	// Simulate a crash mid-append on device 2.
	path := devicePath(dir, 2)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 10 {
		t.Skip("device 2 holds too little data to tear")
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() >= before || re.Len() < before-1 {
		t.Errorf("after torn log Len=%d, want %d-1", re.Len(), before)
	}
	// Queries still work.
	pm, _ := file.Spec(map[string]string{"year": "1985"})
	if _, err := re.Retrieve(pm); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDurableValidation(t *testing.T) {
	file, fx := durableFixture(t, 10, 4)
	dir := t.TempDir()
	if _, err := CreateDurable(dir, file, fx, MainMemory); err != nil {
		t.Fatal(err)
	}
	// Second create in the same dir must refuse.
	if _, err := CreateDurable(dir, file, fx, MainMemory); err == nil {
		t.Error("create over existing cluster accepted")
	}
	wrong := decluster.MustFX(decluster.MustFileSystem([]int{4, 8}, 4))
	if _, err := CreateDurable(t.TempDir(), file, wrong, MainMemory); err == nil {
		t.Error("allocator arity mismatch accepted")
	}
	wrongSizes := decluster.MustFX(decluster.MustFileSystem([]int{4, 4, 2}, 4))
	if _, err := CreateDurable(t.TempDir(), file, wrongSizes, MainMemory); err == nil {
		t.Error("allocator size mismatch accepted")
	}
}

func TestOpenDurableErrors(t *testing.T) {
	if _, err := OpenDurable(t.TempDir(), MainMemory); err == nil {
		t.Error("open of empty dir succeeded")
	}
	// Metadata without an allocator spec is rejected.
	dir := t.TempDir()
	schemaOnly := mkhash.MustNew(mkhash.Schema{Fields: []string{"a"}, Depths: []int{2}})
	if err := persistSaveNoAlloc(dir, schemaOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, MainMemory); err == nil {
		t.Error("metadata without allocator accepted")
	}
}

func TestDurableInsertValidation(t *testing.T) {
	file, fx := durableFixture(t, 10, 4)
	c, err := CreateDurable(t.TempDir(), file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(mkhash.Record{"wrong", "arity"}); err == nil {
		t.Error("wrong-arity record accepted")
	}
	if _, err := c.Retrieve(make(mkhash.PartialMatch, 1)); err == nil {
		t.Error("wrong-arity query accepted")
	}
}

// Durable retrieval under load: many inserts across syncs, queried back.
func TestDurableBulkConsistency(t *testing.T) {
	file, fx := durableFixture(t, 0, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.Insert(mkhash.Record{
			fmt.Sprintf("make%d", i%7),
			fmt.Sprintf("model%d", i),
			fmt.Sprintf("%d", 1980+i%10),
		}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pm, _ := file.Spec(map[string]string{"make": "make3"})
	got, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 500; i++ {
		if i%7 == 3 {
			want++
		}
	}
	if len(got.Records) != want {
		t.Errorf("bulk retrieve %d records, want %d", len(got.Records), want)
	}
	c.Close()
}

func TestDurableBulkInsert(t *testing.T) {
	file, fx := durableFixture(t, 0, 8)
	c, err := CreateDurable(t.TempDir(), file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var batch []mkhash.Record
	for i := 0; i < 1000; i++ {
		batch = append(batch, mkhash.Record{
			fmt.Sprintf("make%d", i%9),
			fmt.Sprintf("model%d", i),
			fmt.Sprintf("%d", 1980+i%6),
		})
	}
	if err := c.BulkInsert(batch); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	pm, _ := file.Spec(map[string]string{"make": "make4"})
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 1000; i++ {
		if i%9 == 4 {
			want++
		}
	}
	if len(res.Records) != want {
		t.Errorf("retrieved %d, want %d", len(res.Records), want)
	}
	// Bad record arity fails before any routing.
	if err := c.BulkInsert([]mkhash.Record{{"short"}}); err == nil {
		t.Error("wrong-arity batch accepted")
	}
}

func TestDurableDeleteAndCompact(t *testing.T) {
	file, fx := durableFixture(t, 0, 4)
	dir := t.TempDir()
	c, err := CreateDurable(dir, file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	target := mkhash.Record{"makeX", "modelX", "1999"}
	if err := c.Insert(target); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(target); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := c.Insert(mkhash.Record{"makeY", "modelY", "1998"}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Delete(target)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || c.Len() != 1 {
		t.Errorf("deleted %d, Len %d; want 2, 1", n, c.Len())
	}
	if _, err := c.Delete(mkhash.Record{"bad"}); err == nil {
		t.Error("wrong-arity delete accepted")
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Deletion and compaction survive reopen.
	re, err := OpenDurable(dir, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Errorf("Len after reopen = %d, want 1", re.Len())
	}
	pm, _ := file.Spec(map[string]string{"make": "makeY"})
	res, err := re.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Errorf("surviving record not found: %v", res.Records)
	}
}

// persistSaveNoAlloc writes cluster metadata without an allocator.
func persistSaveNoAlloc(dir string, schemaOnly *mkhash.File) error {
	return persistSaveFile(filepath.Join(dir, metaName), schemaOnly)
}

// TestDurableInsertDuringRetrieve is the regression test for the race
// between appends and scans on a device store: one goroutine inserts
// 2,000 records while the test goroutine runs 400 retrievals. Under
// -race the store's index, size and record count must be guarded; every
// answer must only hold matching records, and once the writer is done
// the cluster must return all of them.
func TestDurableInsertDuringRetrieve(t *testing.T) {
	file, fx := durableFixture(t, 0, 4)
	c, err := CreateDurable(t.TempDir(), file, fx, MainMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const inserts = 2000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < inserts; i++ {
			r := mkhash.Record{fmt.Sprintf("make%d", i%5), fmt.Sprintf("model%d", i), fmt.Sprintf("%d", 1980+i%6)}
			if err := c.Insert(r); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	pm, err := file.Spec(map[string]string{"make": "make2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		res, err := c.Retrieve(pm)
		if err != nil {
			t.Fatalf("retrieval %d: %v", i, err)
		}
		for _, r := range res.Records {
			if r[0] != "make2" {
				t.Fatalf("retrieval %d returned non-matching record %v", i, r)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res, err := c.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if want := inserts / 5; len(res.Records) != want || c.Len() != inserts {
		t.Errorf("after the writer: %d records retrieved (want %d), Len %d (want %d)", len(res.Records), want, c.Len(), inserts)
	}
}
