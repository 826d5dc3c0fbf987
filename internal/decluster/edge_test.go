package decluster

import (
	"testing"

	"fxdist/internal/field"
)

// M = 1: every allocator maps everything to device 0 and is trivially
// perfect optimal.
func TestSingleDevice(t *testing.T) {
	fs := MustFileSystem([]int{4, 8}, 1)
	allocs := []Allocator{
		MustFX(fs),
		NewModulo(fs),
		MustGDM(fs, []int{3, 5}),
	}
	for _, a := range allocs {
		fs.EachBucket(func(b []int) {
			if a.Device(b) != 0 {
				t.Fatalf("%s: bucket %v on device %d with M=1", a.Name(), b, a.Device(b))
			}
		})
	}
}

// Single-field systems: FX reduces to T_M (or a transform) of the value.
func TestSingleField(t *testing.T) {
	fs := MustFileSystem([]int{16}, 4)
	fx, err := NewBasicFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		if got := fx.Device([]int{v}); got != v%4 {
			t.Errorf("Device([%d]) = %d, want %d", v, got, v%4)
		}
	}
}

// Fields of size 1 contribute nothing under any transform.
func TestUnitField(t *testing.T) {
	fs := MustFileSystem([]int{1, 8}, 4)
	fx := MustFX(fs)
	for v := 0; v < 8; v++ {
		withUnit := fx.Device([]int{0, v})
		if withUnit < 0 || withUnit >= 4 {
			t.Fatalf("device out of range")
		}
	}
	// Unit field may take any small-field transform without error.
	for _, k := range []field.Kind{field.U, field.IU1, field.IU2} {
		x := MustFX(fs, field.WithKinds([]field.Kind{k, field.I}))
		if x.Contribution(0, 0) != 0 {
			t.Errorf("kind %v: unit field contribution %d, want 0", k, x.Contribution(0, 0))
		}
	}
}

// The biggest grid the table reproductions use: device mapping stays in
// range across a full scan (guards against overflow in linearisation).
func TestLargeGridScan(t *testing.T) {
	fs := MustFileSystem([]int{8, 8, 8, 16, 16, 16}, 512)
	fx := MustFX(fs)
	count := 0
	fs.EachBucket(func(b []int) {
		d := fx.Device(b)
		if d < 0 || d >= 512 {
			t.Fatalf("device %d out of range at %v", d, b)
		}
		count++
	})
	if count != fs.NumBuckets() {
		t.Errorf("scanned %d buckets, want %d", count, fs.NumBuckets())
	}
}

// Linear/Coords are inverse bijections over the grid.
func TestLinearCoordsRoundTrip(t *testing.T) {
	fs := MustFileSystem([]int{4, 2, 8}, 4)
	seen := make([]bool, fs.NumBuckets())
	fs.EachBucket(func(b []int) {
		idx := fs.Linear(b)
		if idx < 0 || idx >= fs.NumBuckets() || seen[idx] {
			t.Fatalf("Linear(%v) = %d invalid or repeated", b, idx)
		}
		seen[idx] = true
		back := fs.Coords(idx, nil)
		for i := range b {
			if back[i] != b[i] {
				t.Fatalf("Coords(Linear(%v)) = %v", b, back)
			}
		}
	})
	// Coords appends to the provided buffer.
	buf := []int{99}
	out := fs.Coords(0, buf)
	if out[0] != 99 || len(out) != 4 {
		t.Errorf("Coords append semantics wrong: %v", out)
	}
}

// Linear is the stride-weighted sum of the coordinates.
func TestStridesWeighLinear(t *testing.T) {
	fs := MustFileSystem([]int{4, 2, 8}, 4)
	st := fs.Strides()
	fs.EachBucket(func(b []int) {
		sum := 0
		for i, v := range b {
			sum += v * st[i]
		}
		if sum != fs.Linear(b) {
			t.Fatalf("strides %v weigh %v to %d, Linear gives %d", st, b, sum, fs.Linear(b))
		}
	})
}
