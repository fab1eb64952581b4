package graph

import (
	"math"
	"runtime"
	"sync"
)

// Scratch holds the reusable state of a k-hop BFS: an epoch-stamped visited
// array plus frontier and result buffers. Reusing one Scratch across many
// expansions makes the steady-state hot path allocation-free — the visited
// set is cleared in O(1) by bumping the epoch instead of reallocating a map.
//
// A Scratch is not safe for concurrent use; give each goroutine its own
// (AcquireScratch/ReleaseScratch pool them per graph). Slices returned by
// the *Scratch k-hop methods alias the scratch buffers and are only valid
// until the next call that uses the same Scratch.
type Scratch struct {
	stamp    []int32 // visited iff stamp[v] == epoch
	epoch    int32
	frontier []ID
	next     []ID
	result   []ID
}

// NewScratch returns a Scratch sized for g. Scratches grow on demand, so the
// zero value also works; sizing up front just avoids the first growth.
func NewScratch(g *Graph) *Scratch {
	return &Scratch{stamp: make([]int32, g.n)}
}

// begin prepares the scratch for a BFS over n vertices: it grows the stamp
// array if needed and opens a fresh epoch, clearing only on epoch wraparound.
func (s *Scratch) begin(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.epoch = 0
	}
	if s.epoch == math.MaxInt32 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
}

// AcquireScratch returns a pooled Scratch for BFS over g. Pair with
// ReleaseScratch when done; scratches are recycled across callers, which is
// what keeps steady-state k-hop expansion allocation-free.
func (g *Graph) AcquireScratch() *Scratch {
	if s, ok := g.scratch.Get().(*Scratch); ok {
		return s
	}
	return &Scratch{}
}

// ReleaseScratch returns s to g's pool. The caller must not use s (or any
// slice obtained from it) afterwards.
func (g *Graph) ReleaseScratch(s *Scratch) { g.scratch.Put(s) }

// khopScratch runs the breadth-first expansion of khop over the given
// adjacency direction, writing distinct visited vertices (excluding v) into
// s.result in discovery order. The returned slice aliases s.result.
func (g *Graph) khopScratch(v ID, k int, s *Scratch, adj []adjacency) []ID {
	s.result = s.result[:0]
	if k <= 0 {
		return s.result
	}
	s.begin(g.n)
	s.stamp[v] = s.epoch
	s.frontier = append(s.frontier[:0], v)
	for hop := 0; hop < k && len(s.frontier) > 0; hop++ {
		s.next = s.next[:0]
		for _, u := range s.frontier {
			for t := range adj {
				for _, w := range adj[t].neighbors(u) {
					if s.stamp[w] == s.epoch {
						continue
					}
					s.stamp[w] = s.epoch
					s.next = append(s.next, w)
					s.result = append(s.result, w)
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	return s.result
}

// KHopOutScratch is KHopOut using caller-provided scratch; the returned
// slice aliases the scratch and is valid until its next use.
func (g *Graph) KHopOutScratch(v ID, k int, s *Scratch) []ID {
	return g.khopScratch(v, k, s, g.out)
}

// KHopInScratch returns the set of vertices that reach v in 1..k hops
// following out-edges (v's k-hop in-neighborhood), using caller-provided
// scratch; the returned slice aliases the scratch and is valid until its
// next use.
func (g *Graph) KHopInScratch(v ID, k int, s *Scratch) []ID {
	return g.khopScratch(v, k, s, g.in)
}

// ImportanceScratch computes Imp^(k)(v) with caller-provided scratch,
// allocation-free in steady state.
func (g *Graph) ImportanceScratch(v ID, k int, s *Scratch) float64 {
	do := len(g.khopScratch(v, k, s, g.out))
	if do == 0 {
		return 0
	}
	return float64(len(g.khopScratch(v, k, s, g.in))) / float64(do)
}

// ImportanceAllParallel computes Imp^(k) for every vertex, sharding the
// vertex range over workers goroutines, each with its own Scratch. The
// per-vertex BFS is embarrassingly parallel (the graph is immutable), so
// speedup is near-linear until memory bandwidth saturates. workers <= 0
// selects GOMAXPROCS.
func (g *Graph) ImportanceAllParallel(k, workers int) []float64 {
	imp := make([]float64, g.n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > g.n {
		workers = g.n
	}
	if workers <= 1 {
		s := g.AcquireScratch()
		for v := 0; v < g.n; v++ {
			imp[v] = g.ImportanceScratch(ID(v), k, s)
		}
		g.ReleaseScratch(s)
		return imp
	}
	var wg sync.WaitGroup
	chunk := (g.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > g.n {
			hi = g.n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := g.AcquireScratch()
			for v := lo; v < hi; v++ {
				imp[v] = g.ImportanceScratch(ID(v), k, s)
			}
			g.ReleaseScratch(s)
		}(lo, hi)
	}
	wg.Wait()
	return imp
}
