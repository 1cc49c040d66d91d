package result

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// TestCFITreeAllocs pins the allocation budget of the closed-set
// repository: a subsumption query on a filled tree allocates nothing, and
// filling a tree with n sets allocates only to grow its node arena, a
// logarithmic number of times. A per-node allocation (the children map
// the nodes once carried) makes the fill cost linear and trips this; the
// CI smoke step runs it on every push.
func TestCFITreeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := make([]itemset.Set, 16000)
	for i := range sets {
		sets[i] = randSet(rng, 120, 12)
	}
	fill := func(n int) (*CFITree, float64) {
		var tr *CFITree
		allocs := testing.AllocsPerRun(3, func() {
			tr = new(CFITree)
			for i, s := range sets[:n] {
				tr.Insert(s, 1+i%50)
			}
		})
		return tr, allocs - 1 // the tree header itself
	}

	tr, small := fill(1000)
	_, large := fill(len(sets))
	nodes := float64(len(tr.nodes))
	// Append growth is geometric (factor ≥ 1.25), so 16× more sets may
	// add at most log_1.25(16) ≈ 12.4 growth steps.
	if bound := math.Ceil(math.Log(nodes) / math.Log(1.25)); small > bound {
		t.Fatalf("filling 1000 sets (%d nodes) allocated %.0f times, want ≤ %.0f", len(tr.nodes), small, bound)
	}
	if large > small+13 {
		t.Fatalf("filling %d sets allocated %.0f times against %.0f for 1000: not logarithmic", len(sets), large, small)
	}

	queries := make([]itemset.Set, 256)
	for i := range queries {
		queries[i] = randSet(rng, 120, 4)
	}
	hits := 0
	allocs := testing.AllocsPerRun(5, func() {
		hits = 0
		for i, q := range queries {
			if tr.Subsumed(q, 1+i%60) {
				hits++
			}
		}
	})
	if hits == 0 || hits == len(queries) {
		t.Fatalf("%d of %d queries hit; the workload does not exercise both outcomes", hits, len(queries))
	}
	if allocs != 0 {
		t.Fatalf("Subsumed allocated %.0f times per %d queries, want 0", allocs, len(queries))
	}
}
