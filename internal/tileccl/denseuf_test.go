package tileccl

import (
	"math/rand"
	"testing"
)

func TestDenseUFBasics(t *testing.T) {
	var u denseUF
	u.Reset(4)
	if u.Len() != 4 {
		t.Fatalf("Len = %d, want 4", u.Len())
	}
	for i := int32(0); i < 4; i++ {
		if r := u.Find(i); r != i {
			t.Fatalf("fresh Find(%d) = %d", i, r)
		}
	}
	if r := u.Union(3, 1); r != 1 {
		t.Fatalf("Union(3,1) root = %d, want 1", r)
	}
	if r := u.Union(1, 3); r != 1 {
		t.Fatalf("re-Union root = %d, want 1", r)
	}
	if l := u.Add(); l != 4 {
		t.Fatalf("Add = %d, want 4", l)
	}
	u.Union(4, 3)
	u.Flatten()
	for _, x := range []int32{1, 3, 4} {
		if u.Root(x) != 1 {
			t.Fatalf("Root(%d) = %d after Flatten, want 1", x, u.Root(x))
		}
	}
	if u.Root(0) != 0 || u.Root(2) != 2 {
		t.Fatal("untouched singletons must keep their own roots")
	}
}

// TestDenseUFResetReuses checks that Reset with a smaller or equal size never
// reallocates (the zero-steady-state-allocation contract of the serving path).
func TestDenseUFResetReuses(t *testing.T) {
	var u denseUF
	u.Reset(128)
	base := &u.parent[0]
	u.Union(100, 7)
	u.Reset(64)
	if &u.parent[0] != base {
		t.Fatal("Reset to a smaller size must reuse storage")
	}
	if r := u.Find(7); r != 7 {
		t.Fatalf("Reset must clear prior unions: Find(7) = %d", r)
	}
}

// TestDenseUFAgainstForest cross-checks random union sequences against a
// naive min-root reference: same partition, and Flatten's single sweep fully
// resolves every element.
func TestDenseUFAgainstForest(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		var u denseUF
		u.Reset(n)
		// Reference: naive label array where merging rewrites all members.
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
		}
		for m := rng.Intn(3 * n); m > 0; m-- {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			u.Union(a, b)
			ra, rb := ref[a], ref[b]
			if ra != rb {
				lo := min(ra, rb)
				for i := range ref {
					if ref[i] == ra || ref[i] == rb {
						ref[i] = lo
					}
				}
			}
		}
		u.Flatten()
		for i := 0; i < n; i++ {
			if u.Root(int32(i)) != ref[i] {
				t.Fatalf("trial %d: Root(%d) = %d, want %d", trial, i, u.Root(int32(i)), ref[i])
			}
		}
	}
}
