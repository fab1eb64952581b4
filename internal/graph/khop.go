package graph

// This file implements the k-hop neighborhood counting utilities behind the
// importance metric of Section 3.2:
//
//	Imp^(k)(v) = D_i^(k)(v) / D_o^(k)(v)
//
// where D_i^(k)(v) and D_o^(k)(v) are the numbers of distinct k-hop in- and
// out-neighbors of v. The storage layer caches the out-neighbors of vertices
// whose importance exceeds a threshold (Algorithm 2, lines 5-9).
//
// The BFS underneath is the epoch-stamped, buffer-reusing expansion in
// scratch.go: the convenience methods here acquire a pooled Scratch, so
// steady-state counting allocates nothing and the slice-returning variants
// allocate only their result copy.

// KHopOut returns the set of vertices reachable from v in exactly 1..k hops
// following out-edges of any type (v itself excluded). The result is a
// deduplicated slice in discovery order, owned by the caller.
func (g *Graph) KHopOut(v ID, k int) []ID {
	s := g.AcquireScratch()
	out := append([]ID(nil), g.KHopOutScratch(v, k, s)...)
	g.ReleaseScratch(s)
	return out
}

// KHopOutCount returns D_o^(k)(v).
func (g *Graph) KHopOutCount(v ID, k int) int {
	s := g.AcquireScratch()
	n := len(g.KHopOutScratch(v, k, s))
	g.ReleaseScratch(s)
	return n
}

// KHopInCount returns D_i^(k)(v).
func (g *Graph) KHopInCount(v ID, k int) int {
	s := g.AcquireScratch()
	n := len(g.KHopInScratch(v, k, s))
	g.ReleaseScratch(s)
	return n
}

// Importance returns Imp^(k)(v) = D_i^(k)(v) / D_o^(k)(v), the benefit/cost
// ratio of caching v's out-neighborhood. A vertex with no k-hop
// out-neighbors has importance 0: there is no neighborhood to cache, so it
// can never repay a cache slot.
func (g *Graph) Importance(v ID, k int) float64 {
	s := g.AcquireScratch()
	imp := g.ImportanceScratch(v, k, s)
	g.ReleaseScratch(s)
	return imp
}

// ImportanceAll computes Imp^(k) for every vertex, in parallel over
// GOMAXPROCS workers; it is the batch form used by the storage layer when
// deciding the cache set. Use ImportanceAllParallel to pick the worker count.
func (g *Graph) ImportanceAll(k int) []float64 {
	return g.ImportanceAllParallel(k, 0)
}
