package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("get(1) = %v,%v", v, ok)
	}
	c.Put(3, "c") // evicts 2 (1 was just used)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should be evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 should remain")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("3 should be cached")
	}
	hits, misses, ev := c.Stats()
	if hits != 3 || misses != 1 || ev != 1 {
		t.Fatalf("stats = %d,%d,%d", hits, misses, ev)
	}
	if hr := c.HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %f", hr)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU[string](2)
	c.Put(1, "a")
	c.Put(1, "a2")
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if v, _ := c.Get(1); v != "a2" {
		t.Fatalf("v = %v", v)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU[string](0)
	c.Put(1, "a")
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-cap cache must store nothing")
	}
	if c.HitRate() != 0 {
		t.Fatal("hit rate should be 0")
	}
}

// Property: LRU never exceeds capacity and most-recent insertions survive.
func TestQuickLRUCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := 1 + rng.Intn(16)
		c := NewLRU[int64](capn)
		var last int64
		for i := 0; i < 200; i++ {
			k := int64(rng.Intn(64))
			c.Put(k, k)
			last = k
			if c.Len() > capn {
				return false
			}
		}
		_, ok := c.Get(last)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttributeIndexDedup(t *testing.T) {
	ai := NewAttributeIndex(8)
	a := ai.Intern([]float64{1, 2})
	b := ai.Intern([]float64{1, 2})
	c := ai.Intern([]float64{3})
	if a != b {
		t.Fatalf("identical vectors should dedup: %d vs %d", a, b)
	}
	if a == c {
		t.Fatal("distinct vectors must not collide")
	}
	if ai.NumDistinct() != 2 {
		t.Fatalf("distinct = %d", ai.NumDistinct())
	}
	if ai.Intern(nil) != -1 {
		t.Fatal("nil must intern to -1")
	}
	if ai.Lookup(-1) != nil || ai.Direct(-1) != nil {
		t.Fatal("index -1 must resolve to nil")
	}
	if got := ai.Lookup(a); len(got) != 2 || got[1] != 2 {
		t.Fatalf("lookup = %v", got)
	}
	if ai.Bytes() != 8*3 {
		t.Fatalf("bytes = %d", ai.Bytes())
	}
}

func TestAttributeIndexNoFloatCollision(t *testing.T) {
	ai := NewAttributeIndex(8)
	a := ai.Intern([]float64{1.0})
	b := ai.Intern([]float64{1.0000000001})
	if a == b {
		t.Fatal("nearby floats must not dedup")
	}
}

func buildUserItem(t *testing.T) *graph.Graph {
	t.Helper()
	s := graph.MustSchema([]string{"user", "item"}, []string{"click", "buy"})
	b := graph.NewBuilder(s, true)
	// 4 users sharing 2 distinct attribute vectors; 2 items.
	maleAttr := []float64{1, 0}
	femaleAttr := []float64{0, 1}
	u0 := b.AddVertex(0, maleAttr)
	u1 := b.AddVertex(0, maleAttr)
	u2 := b.AddVertex(0, femaleAttr)
	u3 := b.AddVertex(0, femaleAttr)
	i0 := b.AddVertex(1, []float64{100})
	i1 := b.AddVertex(1, []float64{200})
	for _, u := range []graph.ID{u0, u1, u2, u3} {
		b.AddEdge(u, i0, 0, 1)
	}
	b.AddEdge(u0, i1, 1, 1)
	return b.Finalize()
}

func TestStoreDedupAndSpace(t *testing.T) {
	g := buildUserItem(t)
	s := BuildStore(g)
	if s.VIndex.NumDistinct() != 4 { // male, female, item100, item200
		t.Fatalf("distinct vertex attrs = %d", s.VIndex.NumDistinct())
	}
	if s.VertexAttrIndex(0) != s.VertexAttrIndex(1) {
		t.Fatal("shared attrs must share index")
	}
	if got := s.VertexAttr(2); len(got) != 2 || got[1] != 1 {
		t.Fatalf("attr(u2) = %v", got)
	}
	rep := s.Space()
	if rep.DedupBytes <= 0 || rep.InlineBytes <= 0 {
		t.Fatalf("space report: %+v", rep)
	}
	if rep.Ratio <= 1.0 {
		t.Fatalf("dedup should save space on this graph: ratio=%f", rep.Ratio)
	}
}

func hubGraph(nSpokes int) *graph.Graph {
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	hub := b.AddVertex(0, nil)
	sink := b.AddVertex(0, nil)
	b.AddEdge(hub, sink, 0, 1)
	for i := 0; i < nSpokes; i++ {
		v := b.AddVertex(0, nil)
		b.AddEdge(v, hub, 0, 1)
	}
	return b.Finalize()
}

func TestSelectImportant(t *testing.T) {
	g := hubGraph(10)
	// Hub has Imp^1 = 10/1 = 10; spokes have Imp^1 = 0/1 = 0; sink = 1/0 -> 1.
	sel := SelectImportant(g, 1, 5.0)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("selected = %v", sel)
	}
}

func TestImportanceCache(t *testing.T) {
	g := hubGraph(10)
	c := NewStaticCache(g, "importance", SelectImportant(g, 1, 5.0))
	if c.CachedVertices() != 1 {
		t.Fatalf("cached = %d", c.CachedVertices())
	}
	ns, kind := c.Get(0, 0, 0)
	if kind != KindHit || len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("Get(hub) = %v,%v", ns, kind)
	}
	if _, kind := c.Get(2, 0, 0); kind == KindHit {
		t.Fatal("spoke should not be cached")
	}
}

func TestImportanceCacheTopFraction(t *testing.T) {
	g := hubGraph(20)
	c := NewImportanceCacheTopFraction(g, 2, 0.1)
	want := int(0.1 * float64(g.NumVertices()))
	if c.CachedVertices() != want {
		t.Fatalf("cached = %d want %d", c.CachedVertices(), want)
	}
	// The hub must rank first.
	if _, kind := c.Get(0, 0, 0); kind != KindHit {
		t.Fatal("hub should be among the top fraction")
	}
}

func TestLRUNeighborCache(t *testing.T) {
	c := NewLRUNeighborCache(2)
	if _, kind := c.Get(1, 0, 0); kind == KindHit {
		t.Fatal("empty cache hit")
	}
	c.Observe(1, 0, 0, 0, []graph.ID{2})
	c.Observe(2, 0, 0, 0, []graph.ID{3})
	c.Observe(3, 0, 0, 0, []graph.ID{4}) // evicts (1,0)
	if _, kind := c.Get(1, 0, 0); kind == KindHit {
		t.Fatal("expected eviction of oldest entry")
	}
	if ns, kind := c.Get(3, 0, 0); kind != KindHit || ns[0] != 4 {
		t.Fatalf("get(3) = %v,%v", ns, kind)
	}
	// Entries are keyed by edge type: type 1 of vertex 3 is a miss.
	if _, kind := c.Get(3, 1, 0); kind == KindHit {
		t.Fatal("cross-type cache hit")
	}
}

func TestNoCache(t *testing.T) {
	var c NoCache
	if _, kind := c.Get(1, 0, 0); kind == KindHit {
		t.Fatal("NoCache must always miss")
	}
	c.Observe(1, 0, 0, 0, nil)
	if c.CachedVertices() != 0 || c.Name() != "none" {
		t.Fatal("NoCache identity")
	}
}

func TestCacheRateDecreasesWithThreshold(t *testing.T) {
	// Figure 8 plots len(SelectImportant(g, 1, tau)) / |V|: raising tau
	// must select fewer vertices. Each vertex of this preferential-
	// attachment graph links to 10 earlier vertices picked by degree, so
	// out-degrees sit near 10 while in-degrees are heavy-tailed, and
	// Imp^(1) = in/out spreads over 0.1..0.45 between the zero-importance
	// newcomers and the hubs: every step of the sweep crosses vertices.
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	const n, m = 400, 10
	b.AddVertices(0, n)
	var targets []graph.ID
	for v := graph.ID(0); v < n; v++ {
		for e := 0; e < m && len(targets) > 0; e++ {
			dst := targets[rng.Intn(len(targets))]
			b.AddEdge(v, dst, 0, 1)
			targets = append(targets, dst)
		}
		targets = append(targets, v)
	}
	g := b.Finalize()
	prev := n + 1
	for _, tau := range []float64{0.05, 0.2, 0.45} {
		sel := len(SelectImportant(g, 1, tau))
		if sel >= prev {
			t.Fatalf("raising tau to %.2f selected %d vertices, not fewer than %d", tau, sel, prev)
		}
		prev = sel
	}
}

// TestLRUNeighborCacheEpochValidity: entries carry [since, through]
// validity; a Get outside the interval is an epoch miss, a re-validating
// Observe extends it, and a newer install stamp supersedes the entry.
func TestLRUNeighborCacheEpochValidity(t *testing.T) {
	c := NewLRUNeighborCache(8)
	old := []graph.ID{2, 3}
	c.Observe(1, 0, 0, 0, old) // fetched at epoch 0, installed at 0
	if _, kind := c.Get(1, 0, 0); kind != KindHit {
		t.Fatal("entry must be valid at its fetch epoch")
	}
	// Epoch 3 is past the entry's known-unchanged horizon: epoch miss.
	if _, kind := c.Get(1, 0, 3); kind == KindHit {
		t.Fatal("entry served past its validity interval")
	}
	if h, m, em := c.Counters(); h != 1 || m != 0 || em != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1 hit, 0 misses, 1 epoch miss", h, m, em)
	}
	// Re-validation: same install stamp observed at epoch 3 extends.
	c.Observe(1, 0, 3, 0, old)
	for e := uint64(0); e <= 3; e++ {
		if ns, kind := c.Get(1, 0, e); kind != KindHit || ns[0] != 2 {
			t.Fatalf("re-validated entry invalid at epoch %d", e)
		}
	}
	// Supersede: the vertex was rewritten at epoch 5.
	rewritten := []graph.ID{9}
	c.Observe(1, 0, 5, 5, rewritten)
	if _, kind := c.Get(1, 0, 3); kind == KindHit {
		t.Fatal("pre-rewrite epoch served the rewritten list")
	}
	if ns, kind := c.Get(1, 0, 5); kind != KindHit || ns[0] != 9 {
		t.Fatalf("rewritten entry not served at its epoch: %v %v", ns, kind)
	}
	if c.HitRate() <= 0 {
		t.Fatal("hit rate not tracked")
	}
}

// TestStaticCacheEpochRevalidation: static caches answer later epochs only
// after a fetch confirmed the vertex untouched there (Since == 0 extends),
// never admit new keys, and drop out for vertices an update rewrote.
func TestStaticCacheEpochRevalidation(t *testing.T) {
	g := hubGraph(10)
	c := NewStaticCache(g, "importance", SelectImportant(g, 1, 5.0))
	if _, kind := c.Get(0, 0, 0); kind != KindHit {
		t.Fatal("hub not cached at build epoch")
	}
	// A later epoch misses until re-validated.
	if _, kind := c.Get(0, 0, 2); kind == KindHit {
		t.Fatal("static cache answered an unvalidated epoch")
	}
	c.Observe(0, 0, 2, 0, nil) // reply: still the epoch-0 list at epoch 2
	if _, kind := c.Get(0, 0, 2); kind != KindHit {
		t.Fatal("re-validated static entry still missing")
	}
	if _, kind := c.Get(0, 0, 1); kind != KindHit {
		t.Fatal("interval [0,2] must cover epoch 1")
	}
	// The vertex was rewritten at epoch 4: the stamp mismatch means the
	// static entry can never re-validate past it.
	c.Observe(0, 0, 4, 4, []graph.ID{5})
	if _, kind := c.Get(0, 0, 4); kind == KindHit {
		t.Fatal("static cache served a vertex an update rewrote")
	}
	// Static membership: observes never admit new keys.
	c.Observe(2, 0, 0, 0, []graph.ID{0})
	if _, kind := c.Get(2, 0, 0); kind == KindHit {
		t.Fatal("static cache admitted a new entry")
	}
	if c.Admits() {
		t.Fatal("static cache must report Admits() == false")
	}
}
