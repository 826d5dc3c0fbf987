// Package decluster implements the bucket-to-device allocation methods the
// paper studies: the FX (Fieldwise eXclusive-or) distribution — the paper's
// contribution — and the Modulo and GDM (Generalized Disk Modulo) baselines
// it compares against.
//
// A file system is a grid of buckets f_1 x ... x f_n produced by multi-key
// hashing; an Allocator maps each bucket coordinate vector to one of M
// parallel devices. All allocators here are *group allocators*: the device
// number is a fold of per-field contributions under a commutative group on
// Z_M (xor for FX, addition mod M for Modulo and GDM). That shared
// structure powers both the exact load analysis in package convolve and the
// per-device inverse mapping in package query.
package decluster

import (
	"fmt"

	"fxdist/internal/bitsx"
)

// FileSystem describes a multi-key hashed file: the per-field hashed
// domain sizes and the number of parallel devices.
type FileSystem struct {
	// Sizes holds F_i for each field; every F_i is a power of two.
	Sizes []int
	// M is the number of parallel devices, a power of two.
	M int
}

// NewFileSystem validates and returns a file system description.
func NewFileSystem(sizes []int, m int) (FileSystem, error) {
	if len(sizes) == 0 {
		return FileSystem{}, fmt.Errorf("decluster: file system needs at least one field")
	}
	if !bitsx.IsPow2(m) {
		return FileSystem{}, fmt.Errorf("decluster: device count %d is not a power of two", m)
	}
	for i, f := range sizes {
		if !bitsx.IsPow2(f) {
			return FileSystem{}, fmt.Errorf("decluster: size of field %d (%d) is not a power of two", i, f)
		}
	}
	return FileSystem{Sizes: append([]int(nil), sizes...), M: m}, nil
}

// MustFileSystem is NewFileSystem, panicking on error.
func MustFileSystem(sizes []int, m int) FileSystem {
	fs, err := NewFileSystem(sizes, m)
	if err != nil {
		panic(err)
	}
	return fs
}

// NumFields returns n, the number of fields.
func (fs FileSystem) NumFields() int { return len(fs.Sizes) }

// NumBuckets returns the total number of buckets, prod F_i.
func (fs FileSystem) NumBuckets() int {
	n := 1
	for _, f := range fs.Sizes {
		n *= f
	}
	return n
}

// CheckBucket reports whether b is a valid bucket coordinate vector.
func (fs FileSystem) CheckBucket(b []int) error {
	if len(b) != len(fs.Sizes) {
		return fmt.Errorf("decluster: bucket has %d coordinates, file system has %d fields", len(b), len(fs.Sizes))
	}
	for i, v := range b {
		if v < 0 || v >= fs.Sizes[i] {
			return fmt.Errorf("decluster: coordinate %d of bucket is %d, outside field domain [0,%d)", i, v, fs.Sizes[i])
		}
	}
	return nil
}

// EachBucket calls fn for every bucket of the file system in row-major
// order. The slice passed to fn is reused between calls; copy it if it
// must be retained.
func (fs FileSystem) EachBucket(fn func(b []int)) {
	b := make([]int, len(fs.Sizes))
	var rec func(i int)
	rec = func(i int) {
		if i == len(b) {
			fn(b)
			return
		}
		for v := 0; v < fs.Sizes[i]; v++ {
			b[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// Linear converts bucket coordinates to a row-major linear index in
// [0, NumBuckets()).
func (fs FileSystem) Linear(b []int) int {
	idx := 0
	for i, v := range b {
		idx = idx*fs.Sizes[i] + v
	}
	return idx
}

// Strides returns each field's row-major stride in the linear index:
// Linear(b) is the sum of b[i]·Strides()[i].
func (fs FileSystem) Strides() []int {
	st := make([]int, len(fs.Sizes))
	for i, n := len(st)-1, 1; i >= 0; i-- {
		st[i] = n
		n *= fs.Sizes[i]
	}
	return st
}

// Coords converts a linear index back to bucket coordinates, appending to
// buf (pass buf[:0] to reuse storage).
func (fs FileSystem) Coords(idx int, buf []int) []int {
	n := len(fs.Sizes)
	start := len(buf)
	buf = append(buf, make([]int, n)...)
	for i := n - 1; i >= 0; i-- {
		buf[start+i] = idx % fs.Sizes[i]
		idx /= fs.Sizes[i]
	}
	return buf
}

// SmallFieldCount returns the number of fields whose size is less than M
// (the quantity L of the paper's §4.2 summary and the x-axis of Figures
// 1-4).
func (fs FileSystem) SmallFieldCount() int {
	l := 0
	for _, f := range fs.Sizes {
		if f < fs.M {
			l++
		}
	}
	return l
}

// Group is a commutative group structure on Z_M used to fold per-field
// contributions into a device number.
type Group int

const (
	// XorGroup is (Z_M, xor); FX distribution lives here.
	XorGroup Group = iota
	// AddGroup is (Z_M, + mod M); Modulo and GDM live here.
	AddGroup
)

// Combine returns a·b under the group, with operands and result in Z_M.
func (g Group) Combine(a, b, m int) int {
	switch g {
	case XorGroup:
		return (a ^ b) & (m - 1)
	case AddGroup:
		return (a + b) & (m - 1) // m is a power of two
	default:
		panic(fmt.Sprintf("decluster: invalid group %d", int(g)))
	}
}

// Invert returns the group inverse of a in Z_M.
func (g Group) Invert(a, m int) int {
	switch g {
	case XorGroup:
		return a & (m - 1)
	case AddGroup:
		return (m - a) & (m - 1)
	default:
		panic(fmt.Sprintf("decluster: invalid group %d", int(g)))
	}
}

// String names the group.
func (g Group) String() string {
	switch g {
	case XorGroup:
		return "xor"
	case AddGroup:
		return "add"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// Allocator maps bucket coordinate vectors to devices 0..M-1.
type Allocator interface {
	// Device returns the device holding the given bucket.
	Device(bucket []int) int
	// FileSystem returns the file system the allocator was built for.
	FileSystem() FileSystem
	// Name identifies the method, e.g. "FX", "Modulo", "GDM{2,3,5,7,11,13}".
	Name() string
}

// GroupAllocator is an Allocator whose device function is a group fold of
// per-field contributions: Device(b) = c_1(b_1) · c_2(b_2) · ... · c_n(b_n)
// in (Z_M, op). All allocators in this package satisfy it. The structure is
// what makes exact per-query load histograms (package convolve) and
// per-device inverse mapping (package query) possible without enumerating
// the full bucket grid.
type GroupAllocator interface {
	Allocator
	// Op returns the fold group.
	Op() Group
	// Contribution returns c_i(v) in Z_M for value v of field i.
	Contribution(fieldIdx, v int) int
}

// deviceOf folds contributions; shared by the concrete allocators.
func deviceOf(a GroupAllocator, bucket []int) int {
	fs := a.FileSystem()
	if err := fs.CheckBucket(bucket); err != nil {
		panic(err)
	}
	g := a.Op()
	dev := 0
	for i, v := range bucket {
		dev = g.Combine(dev, a.Contribution(i, v), fs.M)
	}
	return dev
}

// LoadHistogram scans the entire bucket grid through the allocator and
// returns the per-device bucket counts. It is O(prod F_i); analysis code
// uses package convolve instead, but the brute-force scan is the ground
// truth the fast paths are tested against.
func LoadHistogram(a Allocator, fs FileSystem) []int {
	h := make([]int, fs.M)
	fs.EachBucket(func(b []int) {
		h[a.Device(b)]++
	})
	return h
}
