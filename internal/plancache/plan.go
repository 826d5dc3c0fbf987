// Package plancache compiles and caches per-shape retrieval plans.
//
// The engine executor's per-retrieval work — validation, |R(q)|, the
// strict-optimality bound ceil(|R(q)|/M), and each device's qualified-
// bucket enumeration — is almost entirely a function of the *query
// shape* (which fields are unspecified), not of the specified values.
// The paper's own §4–5 analysis is shape-based for exactly this reason.
// For a group allocator the device of a bucket factors as
//
//	device(b) = h · c_free      h = fold of the specified contributions,
//	                            c_free = fold of the free-field ones,
//
// so the free-field value tuples can be grouped by their folded
// contribution once per shape: device dev serves exactly the tuples in
// group h⁻¹ · dev, whatever values the query specifies. A Plan stores
// those groups; answering a concrete query is then a lookup plus a
// substitution walk, with no per-call recursion, reverse-index probing
// or re-validation.
//
// Plans are held in per-cluster Caches (LRU, singleflight-guarded),
// keyed by (allocator identity, shape) so a rebuilt allocator — e.g.
// after a snapshot reload — can never serve another allocator's plan.
// Cache traffic is mirrored into the obs metric registry and the
// /debug/plancache endpoint.
package plancache

import (
	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// Plan is one compiled retrieval plan for a (allocator, shape) pair.
// Plans are immutable after compilation and safe for concurrent use.
type Plan struct {
	// Shape is the query-shape key: 's' per specified field, '*' per
	// unspecified one.
	Shape string
	// Unspec lists the unspecified field indices in field order.
	Unspec []int
	// RQ is |R(q)|, the number of qualified buckets — identical for
	// every query of this shape.
	RQ int
	// M is the device count the plan was compiled for.
	M int
	// Bound is the paper's strict-optimality bound ceil(RQ/M).
	Bound int

	alloc decluster.GroupAllocator
	fs    decluster.FileSystem
	// strides[i] is field i's row-major stride in the linear bucket
	// index (decluster.FileSystem.Linear).
	strides []int
	// offs[g] lists, for every free-field value tuple whose folded
	// contribution is g, the tuple's share of the linear bucket index
	// (the sum of value × stride over the unspecified fields), in the
	// exact order InverseMapper enumerates them: the other free fields
	// row-major, the solved field's preimages ascending. All groups are
	// carved from one slab. nil on summary-only plans (no allocator, or
	// RQ past the compilation cap).
	offs [][]int
	// bytes approximates the plan's heap footprint, for cache accounting.
	bytes int
}

// Bound returns the paper's strict-optimality bound ceil(rq/m) for a
// query with |R(q)| = rq qualified buckets on m devices (0 for m <= 0).
// Plans carry it, so the engine computes it once per shape and every
// retrieval sink judges against the same number.
func Bound(rq, m int) int {
	if m <= 0 {
		return 0
	}
	return (rq + m - 1) / m
}

// Summary builds a tuple-less plan carrying only the shape-pure numbers
// (|R(q)| and the bound). The engine uses it for backends without an
// allocator (the TCP coordinator) and as the uncached fallback; devices
// seeing a summary plan fall back to their InverseMapper.
func Summary(q query.Query, rq, m int) *Plan {
	return &Plan{
		Shape:  q.Shape(),
		Unspec: q.UnspecifiedFields(),
		RQ:     rq,
		M:      m,
		Bound:  Bound(rq, m),
		bytes:  64,
	}
}

// Compile builds the full plan for q's shape under alloc. When the
// shape's |R(q)| exceeds maxTuples (0 means no cap), the tuple groups
// are skipped and a summary plan is returned instead, so one enormous
// shape cannot blow up the cache.
func Compile(alloc decluster.GroupAllocator, q query.Query, maxTuples int) *Plan {
	fs := alloc.FileSystem()
	rq := q.NumQualified(fs)
	p := Summary(q, rq, fs.M)
	if maxTuples > 0 && rq > maxTuples {
		return p
	}
	p.alloc = alloc
	p.fs = fs
	p.strides = fs.Strides()
	p.offs = make([][]int, fs.M)
	p.bytes = 64 + 8*len(p.Unspec) + 8*len(p.strides) + 24*fs.M
	if len(p.Unspec) == 0 {
		return p
	}

	// Mirror InverseMapper's field split: solve for the (first) largest
	// unspecified field, enumerate the rest row-major. The enumeration
	// order inside each group must match InverseMapper exactly so cached
	// and uncached retrievals return records in the same order. One
	// counting pass sizes the groups, so the second pass fills one
	// exact-size slab instead of growing M slices.
	solvedSlot := 0
	for j, i := range p.Unspec {
		if fs.Sizes[i] > fs.Sizes[p.Unspec[solvedSlot]] {
			solvedSlot = j
		}
	}
	rest := make([]int, 0, len(p.Unspec)-1)
	rest = append(rest, p.Unspec[:solvedSlot]...)
	rest = append(rest, p.Unspec[solvedSlot+1:]...)
	w := walker{p: p, g: alloc.Op(), rest: rest, solved: p.Unspec[solvedSlot], counts: make([]int, fs.M)}
	w.walk(0, 0, 0)
	slab := make([]int, rq)
	at := 0
	for c, n := range w.counts {
		p.offs[c] = slab[at : at : at+n]
		at += n
	}
	w.counts = nil
	w.walk(0, 0, 0)
	p.bytes += 8 * rq
	return p
}

// walker enumerates a plan's free-field tuples in InverseMapper order.
// With counts set it only counts each group's tuples; otherwise it
// appends each tuple's linear offset to its group.
type walker struct {
	p      *Plan
	g      decluster.Group
	rest   []int // free fields other than solved, in field order
	solved int
	counts []int
}

// walk fixes rest[j:] row-major and then the solved field, acc being
// the folded contribution and off the linear offset of the values fixed
// so far.
func (w *walker) walk(j, acc, off int) {
	p := w.p
	if j == len(w.rest) {
		for v := 0; v < p.fs.Sizes[w.solved]; v++ {
			c := w.g.Combine(acc, p.alloc.Contribution(w.solved, v), p.fs.M)
			if w.counts != nil {
				w.counts[c]++
			} else {
				p.offs[c] = append(p.offs[c], off+v*p.strides[w.solved])
			}
		}
		return
	}
	i := w.rest[j]
	for v := 0; v < p.fs.Sizes[i]; v++ {
		w.walk(j+1, w.g.Combine(acc, p.alloc.Contribution(i, v), p.fs.M), off+v*p.strides[i])
	}
}

// Ready reports whether the plan carries compiled tuple groups — i.e.
// whether devices can enumerate from it instead of the InverseMapper.
func (p *Plan) Ready() bool { return p.offs != nil }

// Bytes approximates the plan's heap footprint.
func (p *Plan) Bytes() int { return p.bytes }

// Tuples returns the total number of cached free-field tuples.
func (p *Plan) Tuples() int {
	if len(p.Unspec) == 0 {
		return 0
	}
	n := 0
	for _, offs := range p.offs {
		n += len(offs)
	}
	return n
}

// locate returns the tuple group device dev serves for query q and the
// linear index of q's specified values. With h the fold of q's
// specified contributions, dev = h · c_free, so c_free = h⁻¹ · dev.
func (p *Plan) locate(q query.Query, dev int) (group, base int) {
	g := p.alloc.Op()
	h := 0
	for i, v := range q.Spec {
		if v != query.Unspecified {
			h = g.Combine(h, p.alloc.Contribution(i, v), p.fs.M)
			base += v * p.strides[i]
		}
	}
	return g.Combine(g.Invert(h, p.fs.M), dev, p.fs.M), base
}

// EachLinearOnDevice calls fn with the linear bucket index
// (decluster.FileSystem.Linear) of every bucket of R(q) on device dev,
// in the same order InverseMapper.EachLinearOnDevice produces them. It
// allocates nothing. q must have the plan's shape and be in range
// (engine queries are, by construction from the schema).
func (p *Plan) EachLinearOnDevice(q query.Query, dev int, fn func(lin int)) {
	c, base := p.locate(q, dev)
	if len(p.Unspec) == 0 {
		// Fully specified query: the single qualified bucket lives on
		// device h, i.e. where the residual is the identity.
		if c == 0 {
			fn(base)
		}
		return
	}
	for _, off := range p.offs[c] {
		fn(base + off)
	}
}

// EachOnDevice is EachLinearOnDevice with each bucket as its coordinate
// vector. The slice passed to fn is reused; copy to retain.
func (p *Plan) EachOnDevice(q query.Query, dev int, fn func(bucket []int)) {
	b := make([]int, 0, len(q.Spec))
	p.EachLinearOnDevice(q, dev, func(lin int) {
		b = p.fs.Coords(lin, b[:0])
		fn(b)
	})
}

// CountOnDevice returns r_dev(q) — the device's qualified-bucket count —
// without materialising buckets.
func (p *Plan) CountOnDevice(q query.Query, dev int) int {
	c, _ := p.locate(q, dev)
	if len(p.Unspec) == 0 {
		if c == 0 {
			return 1
		}
		return 0
	}
	return len(p.offs[c])
}
