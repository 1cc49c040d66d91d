package parallel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/carpenter"
	"repro/internal/itemset"
	"repro/internal/result"
	"repro/internal/txdb"
)

// randWeightedDB draws n distinct-ish random rows over items, each with
// a weight in 1..4, adds copies of about half of them, and merges the
// duplicates, so the result is a weighted database of about n rows whose
// weights vary widely.
func randWeightedDB(rng *rand.Rand, items, n int, density float64) *txdb.DB {
	b := txdb.NewBuilder(n+n/2, 0)
	b.SetNumItems(items)
	rows := make([]itemset.Set, n)
	for k := range rows {
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				rows[k] = append(rows[k], itemset.Item(i))
			}
		}
		b.AddWeighted(rows[k], 1+rng.Intn(4))
	}
	for c := 0; c < n/2; c++ {
		b.AddWeighted(rows[rng.Intn(n)], 1+rng.Intn(4))
	}
	return txdb.MergeDuplicates(b.Build())
}

// TestCarpenterWeightedDeep is the differential test of both Carpenter
// variants and the branch-parallel table search on weighted databases of
// 40-120 rows, where the transaction-set recursion runs many levels deep
// (the oracle tests stop at 14 rows) and so reuses every per-depth child
// buffer across many sibling branches. Each run is compared with IsTa and
// checked against the support and closure definitions.
func TestCarpenterWeightedDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		items := 10 + rng.Intn(15)
		n := 40 + rng.Intn(81)
		db := randWeightedDB(rng, items, n, 0.25+rng.Float64()*0.25)
		if db.Uniform() {
			t.Fatalf("trial %d: database came out unweighted", trial)
		}
		minsup := 1 + int(float64(db.TotalWeight())*(0.04+rng.Float64()*0.16))
		want := seqIsTa(t, db, minsup)
		if err := result.Verify(db, want, minsup); err != nil {
			t.Fatalf("trial %d: IsTa: %v", trial, err)
		}
		check := func(name string, mine func(result.Reporter) error) {
			t.Helper()
			var got result.Set
			if err := mine(got.Collect()); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s (items=%d rows=%d minsup=%d):\n%s",
					trial, name, items, db.NumTx(), minsup, got.Diff(want, 10))
			}
			if err := result.Verify(db, &got, minsup); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
		for _, variant := range []carpenter.Variant{carpenter.Table, carpenter.Lists} {
			for _, noElim := range []bool{false, true} {
				for _, hash := range []bool{false, true} {
					opts := carpenter.Options{
						MinSupport: minsup, Variant: variant,
						DisableElimination: noElim, HashRepository: hash,
					}
					check(fmt.Sprintf("%v elim=%v hash=%v", variant, !noElim, hash),
						func(rep result.Reporter) error { return carpenter.Mine(db, opts, rep) })
				}
			}
		}
		for _, workers := range []int{2, 3} {
			check(fmt.Sprintf("parallel table workers=%d", workers), func(rep result.Reporter) error {
				return MineCarpenterTable(db, Options{MinSupport: minsup, Workers: workers}, rep)
			})
		}
	}
}

// TestIsTaWeightOverflow: every shard tree counts in int32, so the
// sharded IsTa must refuse a total weight beyond math.MaxInt32 before
// sharding, with the same typed error as the sequential IsTa (here each
// two-row shard's own weight would still fit), and must mine a total of
// exactly math.MaxInt32 exactly.
func TestIsTaWeightOverflow(t *testing.T) {
	const q = math.MaxInt32 / 4 // 4q+3 == MaxInt32
	build := func(last int) *txdb.DB {
		b := txdb.NewBuilder(4, 6)
		b.AddWeighted(itemset.FromInts(0, 1), q)
		b.AddWeighted(itemset.FromInts(0), q)
		b.AddWeighted(itemset.FromInts(0, 1), q)
		b.AddWeighted(itemset.FromInts(0), last)
		return b.Build()
	}
	err := MineIsTa(build(q+4), Options{MinSupport: 1, Workers: 2}, &result.Counter{})
	var oe *txdb.WeightOverflowError
	if !errors.As(err, &oe) || int64(oe.TotalWeight) != math.MaxInt32+1 {
		t.Fatalf("err = %v, want *txdb.WeightOverflowError with total %d", err, int64(math.MaxInt32+1))
	}
	edge := build(q + 3)
	for _, minsup := range []int{1, 2 * q, math.MaxInt32} {
		var want result.Set
		want.Add(itemset.FromInts(0), math.MaxInt32)
		if minsup <= 2*q {
			want.Add(itemset.FromInts(0, 1), 2*q)
		}
		var got result.Set
		if err := MineIsTa(edge, Options{MinSupport: minsup, Workers: 2}, got.Collect()); err != nil {
			t.Fatalf("minsup=%d: %v", minsup, err)
		}
		if !got.Equal(&want) {
			t.Fatalf("minsup=%d:\n%s", minsup, got.Diff(&want, 5))
		}
	}
}

// TestCarpenterTableWeightOverflow: the branch-parallel path shares the
// matrix's int32 counts, so it must refuse a total weight beyond
// math.MaxInt32 with the same typed error as the sequential search.
func TestCarpenterTableWeightOverflow(t *testing.T) {
	b := txdb.NewBuilder(2, 3)
	b.AddWeighted(itemset.FromInts(0, 1), math.MaxInt32)
	b.AddWeighted(itemset.FromInts(0), math.MaxInt32)
	err := MineCarpenterTable(b.Build(), Options{MinSupport: 1, Workers: 2}, &result.Counter{})
	var oe *txdb.WeightOverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *txdb.WeightOverflowError", err)
	}
}
