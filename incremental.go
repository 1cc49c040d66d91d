package fim

import (
	"io"

	"repro/internal/core"
	"repro/internal/persist"
)

// IncrementalMiner is an online closed item set miner: transactions are
// added one at a time (e.g. as they arrive on a stream) and the closed
// frequent item sets of everything seen so far can be queried at any
// moment, at any support threshold. It is a direct consequence of the
// paper's cumulative intersection scheme (§3.2); see
// internal/core.Incremental for the trade-offs against batch mining.
//
// Because the prefix tree holds the complete mining state, the miner is
// checkpointable: Snapshot serializes it and RestoreIncrementalMiner
// resumes at exactly the same transaction. For continuous durability
// (write-ahead logging plus automatic snapshots) use OpenDurable.
type IncrementalMiner struct {
	inc *core.Incremental
}

// NewIncrementalMiner returns an online miner over item codes
// 0..items-1.
func NewIncrementalMiner(items int) *IncrementalMiner {
	return &IncrementalMiner{inc: core.NewIncremental(items)}
}

// Add processes one transaction. The items may be in any order; they
// are canonicalized. Items outside the universe are rejected.
func (m *IncrementalMiner) Add(items ...Item) error { return m.inc.Add(items...) }

// AddSet processes one canonical transaction without copying.
func (m *IncrementalMiner) AddSet(t ItemSet) error { return m.inc.AddSet(t) }

// Transactions returns the number of transactions added so far.
func (m *IncrementalMiner) Transactions() int { return m.inc.Transactions() }

// Items returns the size of the item universe.
func (m *IncrementalMiner) Items() int { return m.inc.Items() }

// NodeCount returns the current prefix tree size, a direct measure of
// the miner's memory use.
func (m *IncrementalMiner) NodeCount() int { return m.inc.NodeCount() }

// Closed reports the closed item sets of the transactions added so far
// whose support reaches minSupport. It may be called repeatedly and at
// different thresholds; it does not modify the miner. The items slice is
// borrowed, as for every Reporter: copy it to keep it.
func (m *IncrementalMiner) Closed(minSupport int, rep Reporter) {
	m.inc.Closed(minSupport, rep)
}

// ClosedSet collects the current closed frequent item sets in canonical
// order.
func (m *IncrementalMiner) ClosedSet(minSupport int) *ResultSet {
	return m.inc.ClosedSet(minSupport)
}

// Snapshot writes the miner's complete state to w in the versioned,
// checksummed binary format of internal/persist. The encoding is
// deterministic: equal states produce identical bytes.
func (m *IncrementalMiner) Snapshot(w io.Writer) error {
	return persist.WriteSnapshot(w, m.inc)
}

// RestoreIncrementalMiner rebuilds a miner from a Snapshot stream,
// resuming at exactly the transaction the snapshot was taken after.
// Corrupt or truncated input fails with an error wrapping ErrCorrupt;
// it never panics.
func RestoreIncrementalMiner(r io.Reader) (*IncrementalMiner, error) {
	inc, err := persist.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &IncrementalMiner{inc: inc}, nil
}
