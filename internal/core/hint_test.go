package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/itemset"
)

// isectRef is the intersection procedure of Fig. 2 as a plain scan, with
// no insertion hints: the reference the hinted isect must match node for
// node.
func (t *Tree) isectRef(n *node, ins **node) {
	trans, imin, step, weight := t.trans, t.imin, t.step, t.weight
	for ; n != nil; n = n.sibling {
		i := n.item
		if !trans[i] {
			if i <= imin {
				return
			}
			if n.children != nil {
				t.isectRef(n.children, ins)
			}
			continue
		}
		d := *ins
		for d != nil && d.item > i {
			ins = &d.sibling
			d = *ins
		}
		if d != nil && d.item == i {
			if d.step >= step {
				d.supp -= weight
			}
			if d.supp < n.supp {
				d.supp = n.supp
			}
			d.supp += weight
			d.step = step
		} else {
			d = t.arena.alloc()
			d.step = step
			d.item = i
			d.supp = n.supp + weight
			d.sibling = *ins
			*ins = d
		}
		if i <= imin {
			return
		}
		if n.children != nil {
			t.isectRef(n.children, &d.children)
		}
	}
}

// addRef is AddWeighted with the reference intersection pass.
func (t *Tree) addRef(items itemset.Set, weight int) {
	t.step++
	t.weight = int32(weight)
	if len(items) == 0 {
		return
	}
	t.insertPath(items)
	for _, it := range items {
		t.trans[it] = true
	}
	t.imin = int32(items[0])
	t.isectRef(t.children, &t.children)
	for _, it := range items {
		t.trans[it] = false
	}
}

// hinted returns a tree over items codes whose hint table is allocated
// from the start, however small the tree.
func hinted(items int) *Tree {
	t := NewTree(items)
	t.hints = make([]hint, hintLevels*items)
	return t
}

func exportAll(t *testing.T, tree *Tree) []NodeRecord {
	t.Helper()
	var out []NodeRecord
	if err := tree.Export(func(r NodeRecord) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// densePass draws a transaction keeping each item with probability p.
func densePass(rng *rand.Rand, items int, p float64) itemset.Set {
	var raw []int
	for i := 0; i < items; i++ {
		if rng.Float64() < p {
			raw = append(raw, i)
		}
	}
	return itemset.FromInts(raw...)
}

// TestIsectHintsMatchReference runs the hinted isect and the Fig. 2 scan
// side by side and compares the full Export stream (items, supports and
// steps of every node) after every pass: on random weighted databases, on
// trees far deeper than the hinted levels, with Prune and Compact between
// passes, and across a wrap of every level's epoch counter.
func TestIsectHintsMatchReference(t *testing.T) {
	cases := []struct {
		name    string
		items   int
		density float64
		n       int
		minsup  int // > 0: Prune and Compact both trees after every pass
		wrap    bool
	}{
		{"sparse", 24, 0.2, 120, 0, false},
		{"medium", 12, 0.45, 80, 0, false},
		{"deep", 20, 0.8, 40, 0, false},
		{"pruned", 16, 0.4, 100, 6, false},
		{"deep pruned", 20, 0.75, 40, 8, false},
		{"epoch wrap", 14, 0.5, 60, 0, true},
		{"epoch wrap pruned", 14, 0.5, 60, 5, true},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			stream := make([]itemset.Set, c.n)
			weights := make([]int, c.n)
			remain := make([]int, c.items)
			for k := range stream {
				stream[k] = densePass(rng, c.items, c.density)
				weights[k] = 1 + rng.Intn(3)
				for _, it := range stream[k] {
					remain[it] += weights[k]
				}
			}
			got, want := hinted(c.items), NewTree(c.items)
			maxDepth := int32(0)
			for k, tx := range stream {
				if c.wrap && k == c.n/3 {
					// Jump every level close to the wrap: the epochs
					// that follow it were all used by the first passes,
					// whose hints must not come back to life.
					for l := range got.epochs {
						got.epochs[l] = math.MaxUint32 - uint32(l)
					}
				}
				got.AddWeighted(tx, weights[k])
				want.addRef(tx, weights[k])
				if c.minsup > 0 {
					for _, it := range tx {
						remain[it] -= weights[k]
					}
					for _, tree := range []*Tree{got, want} {
						tree.Prune(remain, c.minsup)
						tree.Compact()
					}
				}
				g, w := exportAll(t, got), exportAll(t, want)
				if !slices.Equal(g, w) {
					t.Fatalf("pass %d (%v ×%d): hinted tree has %d nodes, reference %d; streams differ",
						k, tx, weights[k], len(g), len(w))
				}
				for _, r := range g {
					maxDepth = max(maxDepth, r.Depth)
				}
			}
			if c.density >= 0.75 && maxDepth < 2*hintLevels {
				t.Fatalf("deepest node at depth %d, want lists well below the %d hinted levels", maxDepth, hintLevels)
			}
			if c.wrap && got.epochs[0] > math.MaxUint32/2 {
				t.Fatalf("level 0 epoch %d never wrapped", got.epochs[0])
			}
		})
	}
}

// TestIsectHintTableThreshold checks that the table is allocated only once
// the tree reaches hintMinNodes, and that mining through it changes no
// report.
func TestIsectHintTableThreshold(t *testing.T) {
	const items = 10
	rng := rand.New(rand.NewSource(7))
	got, want := NewTree(items), NewTree(items)
	for k := 0; k < 400; k++ {
		tx := densePass(rng, items, 0.5)
		if got.NodeCount() < hintMinNodes(items) && got.hints != nil {
			t.Fatalf("hint table allocated at %d nodes, below %d", got.NodeCount(), hintMinNodes(items))
		}
		got.AddTransaction(tx)
		want.addRef(tx, 1)
	}
	if got.hints == nil {
		t.Fatalf("no hint table at %d nodes (threshold %d)", got.NodeCount(), hintMinNodes(items))
	}
	if !slices.Equal(exportAll(t, got), exportAll(t, want)) {
		t.Fatal("hinted tree differs from the reference")
	}
}

// TestIsectHintsClearedByCompact is the regression test for hints that
// outlive Compact: they point into the replaced arena, and while they are
// kept every block of it stays reachable (without the clear, mining
// Yeast(0.15) at minsup 14 peaked at 104 MB of live heap instead of
// 12.5 MB).
func TestIsectHintsClearedByCompact(t *testing.T) {
	const items = 16
	rng := rand.New(rand.NewSource(9))
	tree := hinted(items)
	for k := 0; k < 60; k++ {
		tree.AddTransaction(densePass(rng, items, 0.4))
	}
	held := 0
	for _, h := range tree.hints {
		if h.node != nil {
			held++
		}
	}
	if held == 0 {
		t.Fatal("no hints recorded; the test exercises nothing")
	}
	tree.Compact()
	for i, h := range tree.hints {
		if h.node != nil {
			t.Fatalf("hint %d (level %d, item %d) still points into the old arena after Compact",
				i, i/items, i%items)
		}
	}
}

// TestIsectEpochWrapClearsRow checks the wrap rule directly: the
// activation that wraps a level's counter forgets every hint of that
// level (the epochs after the wrap were handed out before, and entries
// recorded under them would otherwise match again) and leaves the other
// levels alone.
func TestIsectEpochWrapClearsRow(t *testing.T) {
	const items = 12
	rng := rand.New(rand.NewSource(3))
	tree := hinted(items)
	for k := 0; k < 40; k++ {
		tree.AddTransaction(densePass(rng, items, 0.5))
	}
	row := func(l int) []hint { return tree.hints[l*items : (l+1)*items] }
	held := func(l int) int {
		n := 0
		for _, h := range row(l) {
			if h.node != nil {
				n++
			}
		}
		return n
	}
	if held(0) == 0 || held(1) == 0 {
		t.Fatal("no hints recorded at levels 0 and 1")
	}
	keep := slices.Clone(row(1))
	tree.epochs[0] = math.MaxUint32
	tree.activate(0)
	if tree.epochs[0] != 1 || held(0) != 0 {
		t.Fatalf("after wrap: epoch %d, %d hints kept at level 0", tree.epochs[0], held(0))
	}
	if !slices.Equal(row(1), keep) {
		t.Fatal("wrap of level 0 changed level 1")
	}
}
