package core

import (
	"fmt"

	"repro/internal/itemset"
	"repro/internal/result"
)

// Incremental is an online closed item set miner built on the cumulative
// intersection scheme: because IsTa processes transactions one at a time
// and its prefix tree always holds the closed sets of everything seen so
// far (the recursive relation (1) in §3.2 of the paper), it extends
// naturally to a streaming setting. Transactions are added as they
// arrive; the closed frequent item sets of the current prefix can be
// queried at any time, at any support threshold.
//
// Unlike the batch miner, Incremental cannot use item-elimination pruning
// (pruning needs the occurrence counts of *future* transactions, which an
// online miner does not know) and does not recode items, so its memory
// grows with the number of closed sets of the stream seen so far. It is
// the right tool when the transaction stream is modest and queries are
// frequent; for one-shot batch mining use Mine.
type Incremental struct {
	tree  *Tree
	items int
}

// NewIncremental returns an online miner over item codes 0..items-1.
func NewIncremental(items int) *Incremental {
	return &Incremental{tree: NewTree(items), items: items}
}

// RestoreIncremental wraps a rebuilt prefix tree (see TreeBuilder) as an
// online miner, resuming the cumulative intersection at the tree's step
// counter. internal/persist uses it to reconstruct a miner from a
// snapshot.
func RestoreIncremental(t *Tree) *Incremental {
	return &Incremental{tree: t, items: t.Items()}
}

// Items returns the size of the item universe.
func (m *Incremental) Items() int { return m.items }

// Tree exposes the underlying repository for persistence export; the
// tree must not be mutated except through the miner.
func (m *Incremental) Tree() *Tree { return m.tree }

// Add processes one transaction. The items may be in any order; they are
// canonicalized. Items outside the universe are rejected.
func (m *Incremental) Add(items ...itemset.Item) error {
	t := itemset.New(items...)
	if len(t) > 0 && (t[0] < 0 || int(t[len(t)-1]) >= m.items) {
		return fmt.Errorf("core: transaction item outside universe [0,%d): %v", m.items, t)
	}
	m.tree.AddTransaction(t)
	return nil
}

// AddSet processes one canonical transaction without copying.
func (m *Incremental) AddSet(t itemset.Set) error {
	if !t.IsCanonical() {
		return fmt.Errorf("core: transaction not canonical: %v", t)
	}
	if len(t) > 0 && (t[0] < 0 || int(t[len(t)-1]) >= m.items) {
		return fmt.Errorf("core: transaction item outside universe [0,%d): %v", m.items, t)
	}
	m.tree.AddTransaction(t)
	return nil
}

// Transactions returns the number of transactions added so far.
func (m *Incremental) Transactions() int { return m.tree.Step() }

// NodeCount returns the current prefix tree size, a direct measure of the
// miner's memory use.
func (m *Incremental) NodeCount() int { return m.tree.NodeCount() }

// Closed reports the closed item sets of the transactions added so far
// whose support reaches minSupport. It may be called repeatedly and at
// different thresholds; it does not modify the miner. The items slice is
// borrowed (result.Reporter): rep must copy it to keep it.
func (m *Incremental) Closed(minSupport int, rep result.Reporter) {
	m.tree.Report(minSupport, func(items itemset.Set, supp int) {
		rep.Report(items, supp)
	})
}

// ClosedSet collects the current closed frequent item sets in canonical
// order.
func (m *Incremental) ClosedSet(minSupport int) *result.Set {
	var out result.Set
	m.Closed(minSupport, out.Collect())
	out.Sort()
	return &out
}
