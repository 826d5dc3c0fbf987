package mkhash

import (
	"hash/fnv"
	"runtime/debug"
	"testing"
)

// fnvReference is DefaultHash's definition spelled with hash/fnv: FNV-1a
// 64 over the two salt bytes (field index low, high) and then the value.
func fnvReference(fieldIdx int, value string) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(fieldIdx), byte(fieldIdx >> 8)})
	h.Write([]byte(value))
	return h.Sum64()
}

// TestDefaultHashMatchesFNV pins the inlined hash to hash/fnv bit for
// bit: placements and on-disk bucket files depend on it.
func TestDefaultHashMatchesFNV(t *testing.T) {
	values := []string{
		"", "a", "ford", "escort", "1988",
		"unicode ✓", "\xff\xfe\x00\x80", "a\x00b",
		"a value longer than thirty-two bytes, so no short-string path hides a bug",
	}
	for _, field := range []int{0, 1, 255, 256, 1000} {
		h := DefaultHash(field)
		for _, v := range values {
			if got, want := h(v), fnvReference(field, v); got != want {
				t.Errorf("DefaultHash(%d)(%q) = %#x, hash/fnv gives %#x", field, v, got, want)
			}
		}
	}
}

func TestFNV1aBytesAndStringAgree(t *testing.T) {
	for _, v := range []string{"", "x", "unicode ✓", "\xff\x00"} {
		if s, b := FNV1a(FNVOffset64, v), FNV1a(FNVOffset64, []byte(v)); s != b {
			t.Errorf("FNV1a(%q): string %#x, bytes %#x", v, s, b)
		}
	}
}

// FuzzDefaultHashMatchesFNV: for any field index and value, DefaultHash
// equals the hash/fnv reference.
func FuzzDefaultHashMatchesFNV(f *testing.F) {
	f.Add(uint16(0), "")
	f.Add(uint16(1), "ford")
	f.Add(uint16(255), "unicode ✓")
	f.Add(uint16(256), "\xff\xfe\x00")
	f.Add(uint16(1000), "a\x00b")
	f.Fuzz(func(t *testing.T, field uint16, v string) {
		if got, want := DefaultHash(int(field))(v), fnvReference(int(field), v); got != want {
			t.Fatalf("DefaultHash(%d)(%q) = %#x, hash/fnv gives %#x", field, v, got, want)
		}
	})
}

func TestDefaultHashAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := DefaultHash(3)
	v := "a value of some length"
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += h(v) }); n != 0 {
		t.Fatalf("DefaultHash: %.1f allocs/op, want 0", n)
	}
	_ = sink
}
