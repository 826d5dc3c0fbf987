package plancache

import (
	"runtime/debug"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/query"
)

// TestLinearWalksMatchCoordinates: the linear-index walks devices use
// (plan and inverse mapper alike) visit exactly fs.Linear of the
// coordinate walk's buckets, in the same order.
func TestLinearWalksMatchCoordinates(t *testing.T) {
	fs := mustFS(t, []int{8, 4, 2}, 8)
	for _, alloc := range allAllocators(t, fs) {
		im := query.NewInverseMapper(alloc)
		eachShapeQuery(fs, func(q query.Query) {
			p := Compile(alloc, q, 0)
			for dev := 0; dev < fs.M; dev++ {
				var want, fromPlan, fromMapper []int
				im.EachOnDevice(q, dev, func(b []int) { want = append(want, fs.Linear(b)) })
				p.EachLinearOnDevice(q, dev, func(lin int) { fromPlan = append(fromPlan, lin) })
				im.EachLinearOnDevice(q, dev, func(lin int) { fromMapper = append(fromMapper, lin) })
				if !equalInts(fromPlan, want) || !equalInts(fromMapper, want) {
					t.Fatalf("%s %s dev %d: plan %v, mapper %v, want %v",
						alloc.Name(), q, dev, fromPlan, fromMapper, want)
				}
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var linearSink int

// TestEachLinearOnDeviceAllocatesNothing: a device's enumeration, from
// the compiled plan or from the inverse mapper, allocates nothing when
// fn captures nothing.
func TestEachLinearOnDeviceAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fs := mustFS(t, []int{8, 8, 4, 4}, 8)
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	im := query.NewInverseMapper(fx)
	for _, spec := range [][]int{
		{3, query.Unspecified, query.Unspecified, 1},
		{query.Unspecified, query.Unspecified, query.Unspecified, query.Unspecified},
		{1, 2, 3, 0},
	} {
		q := query.New(spec)
		p := Compile(fx, q, 0)
		fn := func(lin int) { linearSink += lin }
		if n := testing.AllocsPerRun(100, func() { p.EachLinearOnDevice(q, 5, fn) }); n != 0 {
			t.Errorf("Plan.EachLinearOnDevice %s: %.1f allocs/op, want 0", q, n)
		}
		if n := testing.AllocsPerRun(100, func() { im.EachLinearOnDevice(q, 5, fn) }); n != 0 {
			t.Errorf("InverseMapper.EachLinearOnDevice %s: %.1f allocs/op, want 0", q, n)
		}
	}
}

// TestCompileGroupsExactSize: the counting pass sizes every tuple group
// exactly, so the fill pass never regrows one (or spills into the next
// group's window of the shared slab).
func TestCompileGroupsExactSize(t *testing.T) {
	fs := mustFS(t, []int{8, 4, 2}, 8)
	fx, err := decluster.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(fx, query.New([]int{query.Unspecified, query.Unspecified, 1}), 0)
	total := 0
	for g, offs := range p.offs {
		if len(offs) != cap(offs) {
			t.Errorf("group %d: len %d, cap %d", g, len(offs), cap(offs))
		}
		total += len(offs)
	}
	if total != p.RQ || p.Tuples() != p.RQ {
		t.Fatalf("groups hold %d tuples (Tuples() = %d), |R(q)| = %d", total, p.Tuples(), p.RQ)
	}
}
