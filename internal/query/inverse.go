package query

import (
	"fxdist/internal/decluster"
)

// InverseMapper answers the per-device question of the paper's §4.2: which
// qualified buckets of a query reside on one given device? Each parallel
// device runs this locally, so it must not scan the whole grid. For group
// allocators the device equation
//
//	c_1(J_1) · ... · c_n(J_n) = dev        (in (Z_M, op))
//
// can be solved for the last unspecified field: fix values for all but one
// unspecified field, compute the contribution the remaining field must
// supply, and look it up in a per-field reverse index. The enumeration
// cost is |R(q)| / F_last * (average preimage size), independent of the
// total grid size.
type InverseMapper struct {
	a decluster.GroupAllocator
	// reverse[i][c] lists the values v of field i with Contribution(i,v)=c.
	reverse [][][]int
	// strides[i] is field i's row-major stride in the linear bucket index.
	strides []int
}

// NewInverseMapper precomputes reverse contribution indexes for a.
func NewInverseMapper(a decluster.GroupAllocator) *InverseMapper {
	fs := a.FileSystem()
	rev := make([][][]int, fs.NumFields())
	for i, f := range fs.Sizes {
		r := make([][]int, fs.M)
		for v := 0; v < f; v++ {
			c := a.Contribution(i, v)
			r[c] = append(r[c], v)
		}
		rev[i] = r
	}
	return &InverseMapper{a: a, reverse: rev, strides: fs.Strides()}
}

// Allocator returns the allocator the mapper was built for.
func (im *InverseMapper) Allocator() decluster.GroupAllocator { return im.a }

// EachLinearOnDevice calls fn with the linear bucket index
// (decluster.FileSystem.Linear) of every bucket of R(q) that the
// allocator places on device dev. Buckets are produced in row-major
// order over all unspecified fields except the solved one, whose
// preimages come last, ascending. It allocates nothing.
func (im *InverseMapper) EachLinearOnDevice(q Query, dev int, fn func(lin int)) {
	fs := im.a.FileSystem()
	if err := q.Validate(fs); err != nil {
		panic(err)
	}
	w := inverseWalk{im: im, q: q, sizes: fs.Sizes, g: im.a.Op(), m: fs.M, dev: dev, solved: -1}

	// Fold the specified contributions into h, their strides into base,
	// and solve for the (first) largest unspecified field: it has the
	// biggest domain, so removing it from the enumeration saves the
	// most work.
	h, base := 0, 0
	for i, v := range q.Spec {
		if v != Unspecified {
			h = w.g.Combine(h, im.a.Contribution(i, v), fs.M)
			base += v * im.strides[i]
		} else if w.solved < 0 || fs.Sizes[i] > fs.Sizes[w.solved] {
			w.solved = i
		}
	}
	if w.solved < 0 {
		if h == dev {
			fn(base)
		}
		return
	}
	w.walk(0, h, base, fn)
}

// inverseWalk is one EachLinearOnDevice enumeration's state.
type inverseWalk struct {
	im     *InverseMapper
	q      Query
	sizes  []int
	g      decluster.Group
	m, dev int
	solved int
}

// walk fixes the unspecified fields from index i on (except solved)
// row-major, then emits the solved field's preimages; acc is the folded
// contribution and off the linear index of the values fixed so far. fn
// travels as its own parameter, not in w: escape analysis does not tell
// struct fields apart, and w's allocator reference leaks through its
// interface calls, which would drag fn's captures to the heap too.
func (w *inverseWalk) walk(i, acc, off int, fn func(lin int)) {
	spec := w.q.Spec
	for i < len(spec) && (spec[i] != Unspecified || i == w.solved) {
		i++
	}
	if i == len(spec) {
		// Need contribution c with acc · c = dev, i.e. c = acc⁻¹ · dev.
		c := w.g.Combine(w.g.Invert(acc, w.m), w.dev, w.m)
		stride := w.im.strides[w.solved]
		for _, v := range w.im.reverse[w.solved][c] {
			fn(off + v*stride)
		}
		return
	}
	stride := w.im.strides[i]
	for v := 0; v < w.sizes[i]; v++ {
		w.walk(i+1, w.g.Combine(acc, w.im.a.Contribution(i, v), w.m), off+v*stride, fn)
	}
}

// EachOnDevice is EachLinearOnDevice with each bucket as its coordinate
// vector. The slice passed to fn is reused; copy to retain.
func (im *InverseMapper) EachOnDevice(q Query, dev int, fn func(bucket []int)) {
	fs := im.a.FileSystem()
	b := make([]int, 0, fs.NumFields())
	im.EachLinearOnDevice(q, dev, func(lin int) {
		b = fs.Coords(lin, b[:0])
		fn(b)
	})
}

// OnDevice returns the buckets of R(q) on device dev as copied slices.
func (im *InverseMapper) OnDevice(q Query, dev int) [][]int {
	var out [][]int
	im.EachOnDevice(q, dev, func(b []int) {
		out = append(out, append([]int(nil), b...))
	})
	return out
}

// CountOnDevice returns r_dev(q) without materialising buckets.
func (im *InverseMapper) CountOnDevice(q Query, dev int) int {
	n := 0
	im.EachLinearOnDevice(q, dev, func(int) { n++ })
	return n
}
