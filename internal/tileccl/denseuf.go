package tileccl

// denseUF is an allocation-free union-find over the dense index range
// 0..Len()-1, used by the per-tile and seam merges. It uses
// union-by-minimum-root — the smaller root always wins, matching CCL's
// minimum-label merge semantics — and path halving, which together maintain
// the invariant parent[x] <= x, so Flatten can resolve every element with a
// single ascending sweep instead of a second find pass.
//
// Unlike ccl.MergeTable (the hardware merge-table model), denseUF has no
// group/root bookkeeping at all: it is the minimal hot-path core, designed
// for Reset-and-reuse across events with zero steady-state allocations.
type denseUF struct {
	parent []int32
}

// Reset re-initializes the structure to n singleton sets 0..n-1, reusing
// prior storage when it suffices.
//
//hepccl:hotpath
func (u *denseUF) Reset(n int) {
	//hepccl:amortized
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
	}
	u.parent = u.parent[:n]
	// A local header: writing through the field would force a reload (the
	// store could alias u) and keep a per-element bounds check.
	p := u.parent
	for i := range p {
		p[i] = int32(i)
	}
}

// Len returns the number of elements.
func (u *denseUF) Len() int { return len(u.parent) }

// Add appends one new singleton set and returns its index.
//
//hepccl:hotpath
func (u *denseUF) Add() int32 {
	l := int32(len(u.parent))
	u.parent = append(u.parent, l)
	return l
}

// Find returns the root of x, halving the path as it goes.
//
//hepccl:hotpath
func (u *denseUF) Find(x int32) int32 {
	p := u.parent
	// The chase indexes with loaded parent values: 0 ≤ p[x] ≤ x < len(p)
	// by union-by-minimum and path halving, a data invariant outside
	// compiler range proofs.
	//hepccl:checked
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// Union merges the sets of a and b and returns the surviving (smaller) root.
// The link is predicated rather than branched: min and max of the two roots
// are computed with a sign-mask blend and the parent store is unconditional
// (self-assignment when the roots already coincide), so the merge inner loops
// built on it — tileccl's run and seam sweeps — carry no data-dependent
// branch beyond the find itself.
//
//hepccl:hotpath
func (u *denseUF) Union(a, b int32) int32 {
	ra, rb := u.Find(a), u.Find(b)
	// m = rb-ra when rb < ra, else 0; min = ra+m, max = rb-m. ra == rb writes
	// parent[root] = root, which is the identity the structure already holds.
	d := rb - ra
	m := d & (d >> 31)
	mn := ra + m
	u.parent[rb-m] = mn
	return mn
}

// Flatten points every element directly at its root. Because unions and path
// halving only ever point elements at smaller indices, one ascending
// double-dereference sweep (the same trick as the §4.3 merge-table
// resolution) is complete.
//
//hepccl:hotpath
func (u *denseUF) Flatten() {
	p := u.parent
	// The inner index is the loaded parent value, bounded by parent[i] ≤ i
	// — see Find.
	//hepccl:checked
	for i := range p {
		p[i] = p[p[i]]
	}
}

// Root returns the representative of x without compressing. After Flatten it
// is a single table read.
//
//hepccl:hotpath
func (u *denseUF) Root(x int32) int32 { return u.parent[x] }
