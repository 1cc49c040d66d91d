package txdb

import (
	"fmt"
	"math"

	"repro/internal/itemset"
	"repro/internal/tidset"
)

// Vertical is the vertical database view: for each item, the ascending
// list of indices of the rows that contain it. The Eclat family, LCM and
// the list-based Carpenter consume it. Tid lists are subslices of one flat
// backing array (two allocations for the whole view, not one per item).
//
// With merged duplicates a tid identifies a weighted row; weighted support
// of a tid list is the sum of Weight(tid), for which miners use
// DB.TidsWeight.
type Vertical struct {
	Items int
	N     int // number of rows
	Tids  [][]int32
}

// Vertical returns the vertical view of db, built lazily on first use and
// cached. The view is immutable and shared; callers must not modify the
// tid lists. On a Slice view, tids are relative to the slice.
func (db *DB) Vertical() *Vertical {
	db.vertOnce.Do(func() {
		n := db.NumTx()
		v := &Vertical{Items: db.items, N: n}
		// Unweighted per-item row counts size the flat backing exactly.
		counts := make([]int32, db.items)
		for _, i := range db.ids[db.offs[0]:db.offs[n]] {
			counts[i]++
		}
		total := 0
		for _, c := range counts {
			total += int(c)
		}
		flat := make([]int32, total)
		v.Tids = make([][]int32, db.items)
		pos := 0
		for i, c := range counts {
			v.Tids[i] = flat[pos : pos : pos+int(c)]
			pos += int(c)
		}
		for k := 0; k < n; k++ {
			for _, i := range db.Tx(k) {
				v.Tids[i] = append(v.Tids[i], int32(k))
			}
		}
		db.vert = v
	})
	return db.vert
}

// KernelUniverse returns the tidset universe of db: its row count and
// weights column. Kernel sets and tidset.Kernel instances built from it
// share db's weight semantics (TidsWeight == Universe.WeightOf).
func (db *DB) KernelUniverse() tidset.Universe {
	return tidset.Universe{N: db.NumTx(), W: db.weights}
}

// KernelSets returns the per-item base tid sets the vertical miners
// intersect against: the Vertical view's tid lists wrapped as kernel
// sets, with dense covers promoted to bitmaps once for the whole run.
// Built lazily on first use and cached; the sets are immutable and
// shared, and the backing array is stable so Diff results may reference
// the sets by pointer.
func (db *DB) KernelSets() []tidset.Set {
	db.kernOnce.Do(func() {
		u := db.KernelUniverse()
		v := db.Vertical()
		sets := make([]tidset.Set, db.items)
		for i, tids := range v.Tids {
			sets[i] = u.Promote(u.FromSorted(tids))
		}
		db.kern = sets
	})
	return db.kern
}

// TidsWeight returns the weighted support of a tid list: the total weight
// of the identified rows. For uniform databases this is len(tids).
func (db *DB) TidsWeight(tids []int32) int {
	if db.weights == nil {
		return len(tids)
	}
	w := 0
	for _, t := range tids {
		w += int(db.weights[t])
	}
	return w
}

// SuffixWeight returns the total weight of rows k..NumTx()-1 — the
// weighted generalization of "transactions from k on", which Carpenter's
// suffix pruning bound needs.
func (db *DB) SuffixWeight(k int) int {
	if db.weights == nil {
		return db.NumTx() - k
	}
	w := 0
	for _, x := range db.weights[k:] {
		w += int(x)
	}
	return w
}

// Matrix is the table representation of §3.1.2 (Table 1 of the paper):
//
//	M[k][i] = weight of { j : k ≤ j < n, i ∈ t_j }  if i ∈ t_k,
//	M[k][i] = 0                                     otherwise.
//
// The entry simultaneously answers membership (non-zero) and "how much
// support remains from row k on" (the item-elimination counter). With
// uniform weights the entries are exactly the paper's transaction counts.
type Matrix struct {
	Items int
	N     int
	M     [][]int32
}

// WeightOverflowError reports a database whose total weight does not fit
// the int32 counts a miner keeps: the Matrix entries and the list-based
// Carpenter's remaining-weight sums, the IsTa node supports and the
// FP-tree node counts. Miners that keep such counts return it instead of
// mining with wrapped values.
type WeightOverflowError struct {
	TotalWeight int
}

func (e *WeightOverflowError) Error() string {
	return fmt.Sprintf("txdb: total weight %d exceeds the int32 count range (max %d)", e.TotalWeight, math.MaxInt32)
}

// CheckInt32Counts returns a *WeightOverflowError when a weighted count
// over rows of db can exceed math.MaxInt32, that is when the total weight
// does; every such count is at most the total weight, so otherwise the
// int32 counts are exact.
func (db *DB) CheckInt32Counts() error {
	if db.totalW > math.MaxInt32 {
		return &WeightOverflowError{TotalWeight: db.totalW}
	}
	return nil
}

// Matrix builds the table representation of db. It is not cached: only
// the table Carpenter uses it, exactly once per run. Its int32 entries
// are exact only when CheckInt32Counts returns nil.
func (db *DB) Matrix() *Matrix {
	n := db.NumTx()
	m := &Matrix{Items: db.items, N: n}
	m.M = make([][]int32, n)
	if n == 0 {
		return m
	}
	flat := make([]int32, n*db.items)
	for k := range m.M {
		m.M[k], flat = flat[:db.items:db.items], flat[db.items:]
	}
	// Running weighted counts of occurrences in rows k..n-1, back to front.
	remain := make([]int32, db.items)
	for k := n - 1; k >= 0; k-- {
		t := db.Tx(k)
		w := int32(db.Weight(k))
		for _, i := range t {
			remain[i] += w
		}
		row := m.M[k]
		for _, i := range t {
			row[i] = remain[i]
		}
	}
	return m
}

// Transpose returns the transposed database: row k of db becomes item k of
// the result, and item i of db becomes row i. This is the gene-expression
// duality from §4 of the paper (genes as transactions vs. genes as items).
// Empty rows of the transposed database (items of db contained in no row)
// are kept so that Transpose∘Transpose is the identity up to trailing
// items. Weights do not survive transposition (a row multiplicity has no
// dual), so db must be uniform.
func (db *DB) Transpose() *DB {
	if db.weights != nil {
		panic("txdb: Transpose of a weighted database")
	}
	n := db.NumTx()
	v := db.Vertical()
	out := &DB{
		items:  n,
		ids:    make([]itemset.Item, 0, db.NumIds()),
		offs:   make([]int32, 1, db.items+1),
		totalW: db.items,
	}
	for i := 0; i < db.items; i++ {
		for _, tid := range v.Tids[i] {
			out.ids = append(out.ids, itemset.Item(tid))
		}
		out.offs = append(out.offs, int32(len(out.ids)))
	}
	return out
}
