package result

import (
	"sort"
	"strconv"

	"repro/internal/itemset"
)

// CFITree (closed frequent item set tree) is the repository used by the
// FP-close style miners (and the Eclat closed target) to answer the
// subsumption query "is there an already stored set Y ⊇ X with support s?"
// — which, by the apriori property, is equivalent to supp(Y) ≥ s for
// supersets Y of a set X with supp(X) = s. It follows the role of the
// CFI-tree in Grahne & Zhu's FPclose.
//
// Sets are stored along root-to-node paths with item codes strictly
// ascending. The nodes live in one flat arena linked by int32 indices
// (no pointers for the collector to trace), and the children of a node
// form a sibling list sorted by ascending item, so a search for an item
// stops at the first larger sibling. Every node caches the maximum
// support of any stored set whose path passes through it, which prunes
// the subsumption search. The zero value is an empty tree.
type CFITree struct {
	nodes []cfiNode // nodes[0] is the root once anything was inserted
	n     int
}

// cfiNode is one arena slot. Index 0 is the root, which is never a child
// or a sibling, so a zero link means "none". int32 links cap the arena at
// 2³¹ nodes, about 48 GB of them.
type cfiNode struct {
	item    itemset.Item
	child   int32 // first child, the one with the smallest item
	sibling int32 // next sibling, with a larger item
	// maxSupp is the maximum support of any stored set whose path passes
	// through or ends in this node. Every such set ends in this subtree,
	// so it is also the best terminal support below the node.
	maxSupp int
}

// Len returns the number of stored sets.
func (t *CFITree) Len() int { return t.n }

// Insert stores items with the given support (≥ 1). Items must be
// canonical.
func (t *CFITree) Insert(items itemset.Set, support int) {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, cfiNode{})
	}
	cur := int32(0)
	t.raise(cur, support)
	for _, it := range items {
		// Find it among cur's children, or the slot that keeps them
		// sorted: prev is the last child below it (0 = insert first).
		prev, next := int32(0), t.nodes[cur].child
		for next != 0 && t.nodes[next].item < it {
			prev, next = next, t.nodes[next].sibling
		}
		if next == 0 || t.nodes[next].item != it {
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, cfiNode{item: it, sibling: next})
			if prev == 0 {
				t.nodes[cur].child = id
			} else {
				t.nodes[prev].sibling = id
			}
			next = id
		}
		t.raise(next, support)
		cur = next
	}
	t.n++
}

func (t *CFITree) raise(node int32, support int) {
	if n := &t.nodes[node]; support > n.maxSupp {
		n.maxSupp = support
	}
}

// Subsumed reports whether some stored set Y ⊇ items has support ≥
// support (≥ 1). A stored copy of items itself also counts (Y ⊇ X
// includes Y = X), which is what the closed-miner duplicate check needs.
func (t *CFITree) Subsumed(items itemset.Set, support int) bool {
	return len(t.nodes) > 0 && t.subsumed(0, items, support)
}

func (t *CFITree) subsumed(node int32, items itemset.Set, support int) bool {
	if t.nodes[node].maxSupp < support {
		return false
	}
	if len(items) == 0 {
		// All required items covered: the stored set carrying maxSupp
		// ends in this subtree and is a superset.
		return true
	}
	want := items[0]
	for c := t.nodes[node].child; c != 0; c = t.nodes[c].sibling {
		it := t.nodes[c].item
		if it > want {
			// Siblings ascend and paths ascend, so want occurs neither in
			// a later sibling nor below one.
			return false
		}
		if it == want {
			return t.subsumed(c, items[1:], support)
		}
		if t.subsumed(c, items, support) {
			return true
		}
	}
	return false
}

// SubsumeFilter accumulates closure candidates and, at emit time, keeps
// exactly the candidates that are maximal within their support group:
// a candidate (X, s) is discarded iff some other candidate (Y, s) with
// Y ⊋ X exists. Since every closed set occurs among the candidates and a
// non-closed candidate always has a closed strict superset with the same
// support, the surviving candidates are precisely the closed sets.
type SubsumeFilter struct {
	bySupport map[int][]itemset.Set
	seen      map[string]bool // dedup on (items, support)
}

// NewSubsumeFilter returns an empty filter.
func NewSubsumeFilter() *SubsumeFilter {
	return &SubsumeFilter{
		bySupport: make(map[int][]itemset.Set),
		seen:      make(map[string]bool),
	}
}

// Add records a closure candidate. The items are copied. Duplicate
// candidates collapse.
func (f *SubsumeFilter) Add(items itemset.Set, support int) {
	k := strconv.Itoa(support) + "|" + items.Key()
	if f.seen[k] {
		return
	}
	f.seen[k] = true
	f.bySupport[support] = append(f.bySupport[support], items.Clone())
}

// Emit reports the maximal candidates per support group.
func (f *SubsumeFilter) Emit(rep Reporter) {
	supports := make([]int, 0, len(f.bySupport))
	for s := range f.bySupport {
		supports = append(supports, s)
	}
	sort.Ints(supports)
	for _, s := range supports {
		group := f.bySupport[s]
		// Longer sets cannot be subsumed by shorter ones; check each set
		// only against strictly longer sets via a per-group CFI tree.
		sort.Slice(group, func(i, j int) bool { return len(group[i]) > len(group[j]) })
		var tree CFITree
		for _, x := range group {
			// Subsumed by a previously inserted (longer or equal length)
			// set? Equal-length distinct sets cannot subsume each other,
			// and duplicates were collapsed in Add, so "⊇ with length ≥"
			// means proper superset here.
			if !tree.Subsumed(x, s) {
				rep.Report(x, s)
			}
			tree.Insert(x, s)
		}
	}
}
