package ccl

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// MergeTable tracks provisional-label equivalences during the raster scan and
// is resolved afterwards to map provisional labels to final island IDs.
//
// It mirrors the hardware structure of §4.2: a 1-indexed array whose entry at
// index g names the group that group g resolves to. A value of 0 means group
// g does not exist yet (no pixels carry that label). A root group points to
// itself. Non-root entries always point to a strictly smaller group number,
// because labels propagate as minima during the scan.
type MergeTable struct {
	// entries[0] is unused so that group numbers index directly (1-indexed,
	// like the hardware array in Fig 5).
	entries []grid.Label
	next    grid.Label
}

// ErrMergeTableFull is returned by Alloc when every slot is in use. The
// hardware cannot grow its BRAM at runtime; neither does this model.
var ErrMergeTableFull = fmt.Errorf("ccl: merge table full")

// SizeForPaper returns the merge-table capacity used by the paper (§5.5):
//
//	MERGETABLE_SIZE = (ROW+1)/2 × (COL+1)/2   (integer division)
//
// i.e. ⌈R/2⌉·⌈C/2⌉. This is the exact worst case for 8-way connectivity
// (new provisional groups form an 8-way independent set, densest on a
// 2×2-spaced lattice). For 4-way connectivity it is NOT sufficient in the
// worst case — see SizeFor — a reproduction finding recorded in
// EXPERIMENTS.md.
func SizeForPaper(rows, cols int) int {
	return ((rows + 1) / 2) * ((cols + 1) / 2)
}

// SizeFor returns a capacity sufficient for any input of the given shape and
// connectivity. New provisional groups are allocated only at lit pixels whose
// scanned neighbors are all dark, so allocation sites form an independent set
// under the connectivity relation restricted to {top, left} / {top-left, top,
// top-right, left}:
//
//   - 4-way: no two allocation sites are edge-adjacent; the checkerboard
//     achieves ⌈R·C/2⌉ groups, and that is the maximum.
//   - 8-way: no two allocation sites are 8-adjacent; a 2×2-spaced lattice
//     achieves ⌈R/2⌉·⌈C/2⌉ groups, the paper's formula.
func SizeFor(rows, cols int, conn grid.Connectivity) int {
	if conn == grid.EightWay {
		return SizeForPaper(rows, cols)
	}
	return (rows*cols + 1) / 2
}

// NewMergeTable returns an empty merge table with room for capacity groups.
func NewMergeTable(capacity int) *MergeTable {
	if capacity < 1 {
		capacity = 1
	}
	return &MergeTable{
		entries: make([]grid.Label, capacity+1),
		next:    1,
	}
}

// Cap returns the capacity (maximum number of groups).
func (mt *MergeTable) Cap() int { return len(mt.entries) - 1 }

// Len returns the number of groups allocated so far.
func (mt *MergeTable) Len() int { return int(mt.next) - 1 }

// Alloc creates a new group pointing to itself and returns its label.
func (mt *MergeTable) Alloc() (grid.Label, error) {
	if int(mt.next) >= len(mt.entries) {
		return 0, ErrMergeTableFull
	}
	l := mt.next
	mt.entries[l] = l
	mt.next++
	return l, nil
}

// Record notes that group g is equivalent to group target using the paper's
// update rule (§4.2, Example 4.4): the entry takes the minimum of its current
// value and target, "avoid[ing] overwriting earlier merge table entries
// pointing to smaller labels". The rule can still lose an equivalence when
// the overwritten value differs from target — the §6 corner case; use Union
// for the corrected behaviour.
func (mt *MergeTable) Record(g, target grid.Label) {
	if g < 1 || int(g) >= len(mt.entries) || mt.entries[g] == 0 {
		return
	}
	if target < mt.entries[g] {
		mt.entries[g] = target
	}
}

// root chases parent pointers to the representative of g's group.
// Entries always point downward (parent ≤ child), so this terminates.
func (mt *MergeTable) root(g grid.Label) grid.Label {
	for mt.entries[g] != g {
		g = mt.entries[g]
	}
	return g
}

// Union merges the groups of a and b, pointing the larger root at the
// smaller. This is the corrected update (ModeFixed): by operating on roots it
// never discards an equivalence the way a raw minimum-overwrite can.
// Both labels must have been allocated.
func (mt *MergeTable) Union(a, b grid.Label) {
	ra, rb := mt.root(a), mt.root(b)
	switch {
	case ra == rb:
	case ra < rb:
		mt.entries[rb] = ra
	default:
		mt.entries[ra] = rb
	}
}

// Resolve collapses transitive chains using the paper's ascending-order
// double-dereference (§4.3): for each existing group i in increasing order,
// mt[i] = mt[mt[i]]. Because entries point to smaller indices, each target is
// already resolved when visited, so chains of any length collapse — provided
// the scan recorded every equivalence (true for Union; true for Record except
// in the §6 corner case).
func (mt *MergeTable) Resolve() {
	for i := grid.Label(1); int(i) < len(mt.entries); i++ {
		if mt.entries[i] == 0 {
			// First zero entry: no more groups (§4.3).
			break
		}
		mt.entries[i] = mt.entries[mt.entries[i]]
	}
}

// Lookup returns the final label for provisional label g — the direct
// merge-table indexing of §4.4. Background (0) maps to 0.
func (mt *MergeTable) Lookup(g grid.Label) grid.Label {
	if g == 0 {
		return 0
	}
	return mt.entries[g]
}

// Roots returns the sorted list of root groups (entries pointing to
// themselves) — the final island IDs after Resolve.
func (mt *MergeTable) Roots() []grid.Label {
	var roots []grid.Label
	for i := grid.Label(1); i < mt.next; i++ {
		if mt.entries[i] == i {
			roots = append(roots, i)
		}
	}
	return roots
}

// String renders the table like the two-row figures under each image in
// Fig 5: group numbers on top, resolution targets underneath.
func (mt *MergeTable) String() string {
	top, bot := "", ""
	for i := grid.Label(1); int(i) < len(mt.entries); i++ {
		top += fmt.Sprintf("%3d", i)
		bot += fmt.Sprintf("%3d", mt.entries[i])
	}
	return top + "\n" + bot
}
