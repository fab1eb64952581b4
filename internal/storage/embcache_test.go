package storage

import (
	"testing"

	"repro/internal/graph"
)

func ids(vs ...graph.ID) []graph.ID { return vs }

// TestEmbCacheInvalidationScope: an update round drops exactly the entries
// whose dependency sets contain a touched vertex, and contiguous rounds
// implicitly revalidate the survivors (covered advances).
func TestEmbCacheInvalidationScope(t *testing.T) {
	c := NewEmbeddingCache(2, 16)
	// v10 depends on {10, 1, 2}; v20 on {20, 2, 3}; v30 on {30, 4}.
	c.Admit(10, []float64{1}, ids(10, 1, 2), []uint64{0, 0})
	c.Admit(20, []float64{2}, ids(20, 2, 3), []uint64{0, 0})
	c.Admit(30, []float64{3}, ids(30, 4), []uint64{0, 0})

	if n := c.Invalidate(0, 1, ids(2)); n != 2 {
		t.Fatalf("touch(2) dropped %d entries, want 2", n)
	}
	if c.Contains(10) || c.Contains(20) {
		t.Fatal("dependents of touched vertex still cached")
	}
	if !c.Contains(30) {
		t.Fatal("unrelated entry was dropped")
	}
	// Survivor is implicitly proven at the new epoch: zero lag, still served.
	if _, ok := c.Get(30, 0); !ok {
		t.Fatal("survivor not served at lag 0 after contiguous round")
	}
	// Dropped vertices are queued dirty for the refresher.
	dirty := c.TakeDirty(8)
	if len(dirty) != 2 {
		t.Fatalf("dirty = %v, want the two dropped vertices", dirty)
	}
}

// TestEmbCacheCoveredContiguity: an epoch gap (a round applied out-of-band,
// never routed through Invalidate) stalls the covered frontier, so entries
// age out by the lag bound instead of being wrongly revalidated.
func TestEmbCacheCoveredContiguity(t *testing.T) {
	c := NewEmbeddingCache(1, 16)
	c.Admit(1, []float64{1}, ids(1), []uint64{0})

	// Epoch 1 was applied out-of-band: only its head is observed.
	c.NoteHeads([]uint64{1})
	// Epoch 2 routes through Invalidate but is non-contiguous: covered must
	// not advance past the unobserved round.
	c.Invalidate(0, 2, ids(99))
	if _, ok := c.Get(1, 1); ok {
		t.Fatal("entry served within lag 1 despite unprocessed epoch 1")
	}
	if _, ok := c.Get(1, 2); !ok {
		t.Fatal("entry refused at lag 2; heads=2, basis=0")
	}

	// A contiguous history advances covered all the way.
	c2 := NewEmbeddingCache(1, 16)
	c2.Admit(1, []float64{1}, ids(1), []uint64{0})
	c2.Invalidate(0, 1, ids(99))
	c2.Invalidate(0, 2, ids(98))
	if _, ok := c2.Get(1, 0); !ok {
		t.Fatal("entry not served at lag 0 after contiguous rounds")
	}
}

// TestEmbCacheAdmissionRace: an embedding computed from a basis snapshot
// older than a round that touched one of its dependencies must not be
// admitted — it may mix data generations.
func TestEmbCacheAdmissionRace(t *testing.T) {
	c := NewEmbeddingCache(1, 16)
	c.Invalidate(0, 1, ids(7))

	if c.Admit(10, []float64{1}, ids(10, 7), []uint64{0}) {
		t.Fatal("admitted an entry whose dep was touched after its basis")
	}
	if c.Admit(11, []float64{1}, ids(11, 8), []uint64{0}) != true {
		t.Fatal("rejected an entry whose deps the round did not touch")
	}
	if !c.Admit(12, []float64{1}, ids(12, 7), []uint64{1}) {
		t.Fatal("rejected an entry whose basis already covers the round")
	}
	st := c.Stats()
	if st.AdmitRejects != 1 {
		t.Fatalf("AdmitRejects = %d, want 1", st.AdmitRejects)
	}
}

// TestEmbCacheInitCovered: seeding from a startup probe makes bases below
// the probe unverifiable (ring floor) while post-probe admissions work.
func TestEmbCacheInitCovered(t *testing.T) {
	c := NewEmbeddingCache(1, 16)
	c.InitCovered([]uint64{5})
	if c.Admit(1, []float64{1}, ids(1), []uint64{4}) {
		t.Fatal("admitted a basis below the startup floor")
	}
	if !c.Admit(1, []float64{1}, ids(1), []uint64{5}) {
		t.Fatal("rejected a basis at the startup floor")
	}
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("entry at the frontier not served at lag 0")
	}
}

// TestEmbCacheLRUDirtyBasis: capacity eviction is LRU, TakeDirty pops
// hottest-first, and an entry's admission basis is what its lag is
// measured from.
func TestEmbCacheLRUDirtyBasis(t *testing.T) {
	c := NewEmbeddingCache(1, 2)
	c.Admit(1, []float64{1}, ids(1), []uint64{0})
	c.Admit(2, []float64{2}, ids(2), []uint64{0})
	c.Get(1, 0) // 1 is now MRU
	c.Admit(3, []float64{3}, ids(3), []uint64{0})
	if c.Contains(2) || !c.Contains(1) || !c.Contains(3) {
		t.Fatal("LRU eviction dropped the wrong entry")
	}

	// Hotness ranking: hammer 3, then invalidate both.
	for i := 0; i < 5; i++ {
		c.Get(3, 0)
	}
	c.Invalidate(0, 1, ids(1, 3))
	dirty := c.TakeDirty(1)
	if len(dirty) != 1 || dirty[0] != 3 {
		t.Fatalf("TakeDirty = %v, want the hottest vertex 3", dirty)
	}

	// Basis 3 is ahead of the frontier (1): heads 3 is lag 0, heads 5 lag 2.
	c.Admit(4, []float64{4}, ids(4), []uint64{3})
	c.NoteHeads([]uint64{3})
	if _, ok := c.Get(4, 0); !ok {
		t.Fatal("entry at its basis not served at lag 0")
	}
	c.NoteHeads([]uint64{5})
	if _, ok := c.Get(4, 1); ok {
		t.Fatal("entry served at lag 1 two epochs past its basis")
	}
	if _, ok := c.Get(4, 2); !ok {
		t.Fatal("entry refused at lag 2 two epochs past its basis")
	}
}

// TestEmbCacheFrontierOutOfOrder: two callers' update replies can cross,
// so rounds reach Invalidate out of epoch order. Rounds 2 then 1 leave the
// frontier at 2, and the untouched entry is current at lag 0; a round on
// another shard does not move this shard's frontier.
func TestEmbCacheFrontierOutOfOrder(t *testing.T) {
	c := NewEmbeddingCache(2, 16)
	c.Admit(1, []float64{1}, ids(1), []uint64{0, 0})
	c.Invalidate(0, 2, ids(99))
	if _, ok := c.Get(1, 1); ok {
		t.Fatal("entry served at lag 1 while epoch 1's round is outstanding")
	}
	c.Invalidate(0, 1, ids(98))
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("rounds 2 then 1 did not leave the frontier at 2")
	}

	// Rounds 5, 4, 3 on shard 0 and 1 on shard 1: both frontiers close.
	c.Invalidate(1, 2, ids(97))
	c.Invalidate(0, 5, ids(96))
	c.Invalidate(0, 4, ids(95))
	c.Invalidate(0, 3, ids(94))
	if _, ok := c.Get(1, 1); ok {
		t.Fatal("shard 1's frontier passed its missing epoch 1")
	}
	c.Invalidate(1, 1, ids(93))
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("frontiers did not close over rounds 3..5 and 1..2")
	}
}
