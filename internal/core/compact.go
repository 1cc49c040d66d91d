package core

// Compact rebuilds the tree into a fresh arena in preorder (the exact
// order isect traverses it: node, then its children, then its sibling).
// The tree's logical structure is unchanged; only the memory layout
// improves. Because intersection passes dominate the run time and stream
// over millions of nodes, laying the nodes out in traversal order turns
// most link dereferences into sequential memory access. Mine calls it
// together with Prune, so the cost is amortized against tree growth.
func (t *Tree) Compact() {
	var fresh arena
	t.children = compactList(&fresh, t.children)
	t.arena = fresh
	// Every hint points into the old arena: keeping them would pin all of
	// its blocks for the rest of the run (epochs already make them stale).
	clear(t.hints)
}

func compactList(dst *arena, n *node) *node {
	var head *node
	tail := &head
	for ; n != nil; n = n.sibling {
		c := dst.alloc()
		c.item, c.step, c.supp = n.item, n.step, n.supp
		*tail = c
		tail = &c.sibling
		c.children = compactList(dst, n.children)
	}
	*tail = nil
	return head
}
