package carpenter

import (
	"testing"

	"repro/internal/gendata"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// TestCarpenterScanAllocs pins the steady-state allocation budget of the
// Carpenter scan loop at zero for both variants. A warm-up run fills the
// repository with every closed set and grows the per-depth child
// buffers; re-running the root call on the same miner then repeats the
// scan steps (every one of them re-intersects and looks its child up in
// the repository) but reports nothing, so any per-step make() trips this.
// The CI smoke step runs it on every push.
func TestCarpenterScanAllocs(t *testing.T) {
	// The gene-expression shape Carpenter targets: few rows, many items.
	db := gendata.Yeast(0.05, 1)
	const minsup = 6
	pre := prep.Prepare(db, minsup, prep.Config{})
	items := pre.DB.NumItems()
	for _, variant := range []Variant{Table, Lists} {
		t.Run(variant.String(), func(t *testing.T) {
			var count result.Counter
			m := newMiner(pre, minsup, variant, false, false, mining.Guarded(nil, nil), &count)
			var run func() error
			if variant == Table {
				root := tableRoot(items)
				run = func() error { return m.exploreTable(root, 0, 0, 0) }
			} else {
				root := listsRoot(items)
				run = func() error {
					// The lists scan advances the root's positions in place.
					for i := range root {
						root[i].pos = 0
					}
					return m.exploreLists(root, 0, 0, 0)
				}
			}
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if count.N == 0 {
				t.Fatal("warm-up run reported nothing; the workload is too sparse")
			}
			warm := count.N
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				if e := run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if count.N != warm {
				t.Fatalf("re-run reported %d more sets, want 0", count.N-warm)
			}
			if allocs != 0 {
				t.Fatalf("%v scan allocated %.0f times per root call, want 0", variant, allocs)
			}
		})
	}
}
