package fpgrowth

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/result"
	"repro/internal/txdb"
)

func randDB(rng *rand.Rand, items, n int, density float64) *dataset.Database {
	trans := make([]itemset.Set, n)
	for k := range trans {
		var t itemset.Set
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				t = append(t, itemset.Item(i))
			}
		}
		trans[k] = t
	}
	return dataset.New(trans, items)
}

// bruteAllFrequent enumerates all frequent item sets directly.
func bruteAllFrequent(db *dataset.Database, minsup int) *result.Set {
	var out result.Set
	items := make(itemset.Set, 0, db.Items)
	for mask := 1; mask < 1<<uint(db.Items); mask++ {
		items = items[:0]
		for i := 0; i < db.Items; i++ {
			if mask&(1<<uint(i)) != 0 {
				items = append(items, itemset.Item(i))
			}
		}
		if supp := result.Support(db, items); supp >= minsup {
			out.Add(items, supp)
		}
	}
	return &out
}

func TestAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 60; trial++ {
		items := 2 + rng.Intn(7)
		n := 1 + rng.Intn(10)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.5)
		for _, minsup := range []int{1, 2} {
			want := bruteAllFrequent(db, minsup)
			var got result.Set
			if err := Mine(db, Options{MinSupport: minsup, Target: All}, got.Collect()); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("FP-growth(all) mismatch (minsup=%d db=%v):\n%s", minsup, db.Trans, got.Diff(want, 10))
			}
		}
	}
}

func TestClosedMatchesIsTaLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 5; trial++ {
		db := randDB(rng, 30+rng.Intn(30), 60+rng.Intn(80), 0.1+rng.Float64()*0.2)
		minsup := 2 + rng.Intn(6)
		var want result.Set
		if err := core.Mine(db, core.Options{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		var got result.Set
		if err := Mine(db, Options{MinSupport: minsup}, got.Collect()); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("FP-close disagrees with IsTa (minsup=%d):\n%s", minsup, got.Diff(&want, 10))
		}
	}
}

func TestEdgeCases(t *testing.T) {
	var got result.Set
	if err := Mine(&dataset.Database{Items: 3}, Options{MinSupport: 1}, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db")
	}

	db := dataset.FromInts([]int{0, 1, 2})
	got = result.Set{}
	if err := Mine(db, Options{MinSupport: 1}, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(0, 1, 2), 1)
	if !got.Equal(&want) {
		t.Fatalf("single transaction closed: %s", got.Diff(&want, 5))
	}

	bad := &dataset.Database{Items: 1, Trans: []itemset.Set{{3}}}
	if err := Mine(bad, Options{MinSupport: 1}, &result.Counter{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(7)), 50, 200, 0.4)
	err := Mine(db, Options{MinSupport: 2, Done: done}, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestFPTreeStructure(t *testing.T) {
	// Two overlapping transactions must share a prefix path.
	tree := newFPTree(3)
	tree.insert([]int32{0, 1}, 1)
	tree.insert([]int32{0, 1, 2}, 1)
	tree.insert([]int32{1}, 1)
	if tree.counts[0] != 2 || tree.counts[1] != 3 || tree.counts[2] != 1 {
		t.Fatalf("counts = %v", tree.counts)
	}
	// Item 0 must have a single node with count 2.
	n := tree.heads[0]
	if n == nil || n.next != nil || n.count != 2 {
		t.Fatalf("item 0 chain wrong: %+v", n)
	}
	// Item 1 has two nodes: one under 0 (count 2), one under root (count 1).
	chain := 0
	for n := tree.heads[1]; n != nil; n = n.next {
		chain++
	}
	if chain != 2 {
		t.Fatalf("item 1 chain length = %d", chain)
	}
}

// weightedDB builds a database from rows with the given weights.
func weightedDB(rows []itemset.Set, weights []int) *txdb.DB {
	b := txdb.NewBuilder(len(rows), 0)
	for k, r := range rows {
		b.AddWeighted(r, weights[k])
	}
	return b.Build()
}

// TestMineWeightOverflow: FP-tree node counts and the conditional counts
// are int32 sums of row weights, so a total weight beyond math.MaxInt32
// must fail with the typed error instead of mining wrapped counts (which
// silently dropped {0}:4294967294 here), while a total of exactly
// math.MaxInt32 is still mined exactly, for both targets.
func TestMineWeightOverflow(t *testing.T) {
	rows := []itemset.Set{itemset.FromInts(0, 1), itemset.FromInts(0)}
	over := weightedDB(rows, []int{math.MaxInt32, math.MaxInt32})
	edge := weightedDB(rows, []int{math.MaxInt32 - 1, 1})
	for _, target := range []Target{Closed, All} {
		err := Mine(over, Options{MinSupport: 1, Target: target}, &result.Counter{})
		var oe *txdb.WeightOverflowError
		if !errors.As(err, &oe) || int64(oe.TotalWeight) != 2*math.MaxInt32 {
			t.Fatalf("%v: err = %v, want *txdb.WeightOverflowError with total %d", target, err, int64(2*math.MaxInt32))
		}
		for _, minsup := range []int{1, math.MaxInt32 - 1, math.MaxInt32} {
			var want result.Set
			want.Add(itemset.FromInts(0), math.MaxInt32)
			if minsup < math.MaxInt32 {
				want.Add(itemset.FromInts(0, 1), math.MaxInt32-1)
				if target == All {
					want.Add(itemset.FromInts(1), math.MaxInt32-1)
				}
			}
			var got result.Set
			if err := Mine(edge, Options{MinSupport: minsup, Target: target}, got.Collect()); err != nil {
				t.Fatalf("%v minsup=%d: %v", target, minsup, err)
			}
			if !got.Equal(&want) {
				t.Fatalf("%v minsup=%d:\n%s", target, minsup, got.Diff(&want, 5))
			}
		}
	}
}
