package gateway

import (
	"sort"
)

// Slot table construction. Placement is a classic vnode hash ring flattened
// into a fixed power-of-two slot table: every joined backend contributes
// vnodesPerBackend pseudo-random points, each slot has a fixed probe point, and the
// slot's candidate chain is the first chainLen distinct backends clockwise
// from that point. Flattening means the per-event hot path is one hash, one
// mask, one array load — the ring walk happens only at rebuild time, which is
// rare (membership or health transitions).
//
// Stability: a backend's vnode points depend only on its address, and a
// slot's probe point only on its index, so removing a backend perturbs
// exactly the slots it owned, and (re-)adding one steals ~1/n of the slots
// back — the consistent-hashing contract the drain/re-add choreography
// relies on.
//
// Health spill happens at rebuild: the chain keeps ring order, but the
// slot's primary is the first candidate whose probed health is good, so a
// degraded backend's slots spill to their clockwise successors while the
// degraded backend stays in the chain as a last resort (a fleet that is
// degraded everywhere still serves). Overload is NOT handled here — it is
// transient on probe timescales, so the forward path deals with it per event
// (hold-and-retry, then shed).

// chainLen is how many distinct fallback backends each slot records.
const chainLen = 3

// slotChain is one slot's candidate backends in ring order. primary indexes
// the preferred candidate after health spill; entries beyond n are nil.
type slotChain struct {
	bs      [chainLen]*Backend
	n       int8
	primary int8
}

// table is an immutable routing table; the gateway swaps it atomically on
// every rebuild.
type table struct {
	slots []slotChain
	mask  uint32
	// routable counts backends that are joined and not probed down — the
	// gateway's own /healthz is derived from it.
	routable int
	// joined counts backends participating in the ring at all.
	joined int
	// fleet is every backend at the rebuild, whatever its state: the
	// bounded-load cap sums their in-flight counts.
	fleet []*Backend
}

// vnode is one ring point.
type vnode struct {
	h uint64
	b *Backend
}

// buildTable computes the slot table over the current fleet. slots must be a
// power of two. Backends that are draining or detached contribute no vnodes;
// backends probed down stay off the ring too (they are unreachable, there is
// nothing to spill *to* them).
func buildTable(backends []*Backend, slots, vnodes int) *table {
	t := &table{slots: make([]slotChain, slots), mask: uint32(slots - 1), fleet: backends}
	ring := make([]vnode, 0, len(backends)*vnodes)
	for _, b := range backends {
		if !b.Joined() {
			continue
		}
		t.joined++
		if b.HealthClass() == healthDown {
			continue
		}
		t.routable++
		seed := hashString(b.Addr)
		for v := 0; v < vnodes; v++ {
			ring = append(ring, vnode{h: splitmix64(seed + uint64(v)), b: b})
		}
	}
	if len(ring) == 0 {
		return t
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].h < ring[j].h })
	for s := range t.slots {
		p := splitmix64(slotSalt ^ uint64(s))
		i := sort.Search(len(ring), func(k int) bool { return ring[k].h >= p })
		sc := &t.slots[s]
		for k := 0; k < len(ring) && int(sc.n) < chainLen; k++ {
			v := ring[(i+k)%len(ring)]
			dup := false
			for j := int8(0); j < sc.n; j++ {
				if sc.bs[j] == v.b {
					dup = true
					break
				}
			}
			if !dup {
				sc.bs[sc.n] = v.b
				sc.n++
			}
		}
		// Health spill: prefer the first candidate that probed good.
		for j := int8(0); j < sc.n; j++ {
			if sc.bs[j].HealthClass() == healthGood {
				sc.primary = j
				break
			}
		}
	}
	return t
}

// chain returns the candidate list and preferred index for an event id.
//
//hepccl:hotpath
func (t *table) chain(event uint32) *slotChain {
	return &t.slots[slotOf(event, t.mask)]
}
