package txdb

import (
	"slices"

	"repro/internal/itemset"
)

// Builder accumulates transactions directly into the flat columns, so
// producers (dataset I/O, the synthetic generators, prep) emit straight
// into the final representation with no per-transaction allocations —
// growth is amortized over the two backing arrays. A Builder is single-use:
// Build hands its columns to the DB without copying. The zero value is an
// empty Builder ready to use; NewBuilder only pre-sizes the columns.
type Builder struct {
	items   int // universe floor; raised by observed items
	ids     []itemset.Item
	offs    []int32
	weights []int32 // nil until a weight ≠ 1 is added
	totalW  int
}

// NewBuilder returns a Builder. rowsHint/idsHint pre-size the columns
// (0 is fine).
func NewBuilder(rowsHint, idsHint int) *Builder {
	b := &Builder{
		ids:  make([]itemset.Item, 0, idsHint),
		offs: make([]int32, 1, rowsHint+1),
	}
	return b
}

// SetNumItems sets a floor for the item universe; the final universe is
// the larger of this and 1 + the largest item observed.
func (b *Builder) SetNumItems(n int) { b.items = n }

// NumRows returns the number of rows added so far.
func (b *Builder) NumRows() int { return max(len(b.offs)-1, 0) }

// AddSet appends one transaction with weight 1. t must already be
// canonical (strictly ascending); its contents are copied.
func (b *Builder) AddSet(t itemset.Set) { b.AddWeighted(t, 1) }

// AddWeighted appends one canonical transaction with the given
// multiplicity (w ≥ 1).
func (b *Builder) AddWeighted(t itemset.Set, w int) {
	b.ids = append(b.ids, t...)
	b.closeRow(len(t), w)
}

// AddRow appends one transaction given as an arbitrary (unsorted, possibly
// duplicated) item list: the row is canonicalized in place inside the flat
// array, with no temporary allocation. This replaces the ad-hoc
// append-then-sort canonicalization producers used to do per row.
func (b *Builder) AddRow(row []itemset.Item) {
	start := len(b.ids)
	b.ids = append(b.ids, row...)
	seg := b.ids[start:]
	slices.Sort(seg)
	// Deduplicate in place.
	wr := 0
	for r := range seg {
		if r == 0 || seg[r] != seg[wr-1] {
			seg[wr] = seg[r]
			wr++
		}
	}
	b.ids = b.ids[:start+wr]
	b.closeRow(wr, 1)
}

// AddInts appends one transaction given as ints; a test and generator
// convenience equivalent to AddRow.
func (b *Builder) AddInts(row ...int) {
	start := len(b.ids)
	for _, v := range row {
		b.ids = append(b.ids, itemset.Item(v))
	}
	seg := b.ids[start:]
	slices.Sort(seg)
	wr := 0
	for r := range seg {
		if r == 0 || seg[r] != seg[wr-1] {
			seg[wr] = seg[r]
			wr++
		}
	}
	b.ids = b.ids[:start+wr]
	b.closeRow(wr, 1)
}

func (b *Builder) closeRow(rowLen, w int) {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0) // a zero-value Builder's leading offset
	}
	b.offs = append(b.offs, int32(len(b.ids)))
	if w != 1 && b.weights == nil {
		b.weights = make([]int32, 0, cap(b.offs))
		for i := 0; i < b.NumRows()-1; i++ {
			b.weights = append(b.weights, 1)
		}
	}
	if b.weights != nil {
		b.weights = append(b.weights, int32(w))
	}
	b.totalW += w
	if rowLen > 0 {
		if top := int(b.ids[len(b.ids)-1]) + 1; top > b.items {
			b.items = top
		}
	}
}

// Build finalizes the accumulated rows into an immutable DB. The Builder
// must not be used afterwards (the DB owns the columns).
func (b *Builder) Build() *DB {
	if len(b.offs) == 0 {
		b.offs = []int32{0}
	}
	db := &DB{
		items:   b.items,
		ids:     b.ids,
		offs:    b.offs,
		weights: b.weights,
		totalW:  b.totalW,
	}
	b.ids, b.offs, b.weights = nil, nil, nil
	return db
}

// MergeDuplicates returns a database in which identical rows are merged
// into one row whose weight is the sum of the originals' weights (the
// multiset-to-weighted-set reduction of §2 of the paper: support counting
// only ever needs the multiplicity). Rows keep the order of their first
// occurrence, so a database without duplicates comes back row-identical.
// The input is unchanged; if nothing merges the result still owns fresh
// columns only when duplicates existed — otherwise db itself is returned.
func MergeDuplicates(db *DB) *DB {
	n := db.NumTx()
	if n < 2 {
		return db
	}
	// Sort a permutation by row content; identical rows become adjacent.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, c int32) int {
		if cmp := itemset.Compare(db.Tx(int(a)), db.Tx(int(c))); cmp != 0 {
			return cmp
		}
		return int(a - c) // stable: first occurrence first within a group
	})
	// keeper[k] = index of the first row equal to row k; weight accumulates
	// on the keeper.
	keeper := make([]int32, n)
	addW := make([]int64, n)
	dups := 0
	for i := 0; i < n; {
		j := i
		lead := perm[i]
		for j < n && db.Tx(int(perm[j])).Equal(db.Tx(int(lead))) {
			k := perm[j]
			if k < lead {
				lead = k
			}
			j++
		}
		for ; i < j; i++ {
			k := perm[i]
			keeper[k] = lead
			addW[lead] += int64(db.Weight(int(k)))
			if k != lead {
				dups++
			}
		}
	}
	if dups == 0 {
		return db
	}
	out := NewBuilder(n-dups, db.NumIds())
	out.SetNumItems(db.items)
	for k := 0; k < n; k++ {
		if int(keeper[k]) != k {
			continue
		}
		out.AddWeighted(db.Tx(k), int(addW[k]))
	}
	return out.Build()
}
