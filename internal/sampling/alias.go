// Package sampling implements AliGraph's sampling layer (Section 3.3): the
// three sampler classes TRAVERSE, NEIGHBORHOOD and NEGATIVE, weighted
// samplers with dynamic weight updates (a sampler "backward" pass), and the
// lock-free per-group request-flow buckets that serialize reads and updates
// without locking (Figure 6).
//
// # Sampling engine
//
// The hot path is batched, parallel and allocation-free in steady state:
//
//   - Source is batch-first: one fixed-width SampleBatch call covers a
//     whole hop of a mini-batch. The in-memory graph (GraphSource) and the
//     distributed cluster client are two implementations of the same seam;
//     the remote one dedups hub vertices and pays at most one round trip
//     per owning server per hop.
//   - AliasIndex precomputes one Walker alias table per vertex for a
//     (graph, edge type) pair, flattened into CSR-aligned arrays, so a
//     weighted neighbor draw is O(1) with zero per-draw construction.
//     Neighborhood builds the index lazily on first weighted use and shares
//     it across goroutines (it is immutable once built).
//   - Neighborhood.SampleInto reuses the layer buffers of a caller-owned
//     Context across mini-batches, so steady-state expansion performs no
//     allocation at all.
//   - Rng is a one-word splitmix64 generator; each worker goroutine owns
//     one, eliminating the rand.Rand mutex from the draw path.
//
// The graph side of the same engine (epoch-stamped k-hop BFS, pooled
// Scratch, ImportanceAllParallel) lives in internal/graph.
package sampling

import (
	"math/rand"
)

// Alias is a Walker alias table: O(n) construction, O(1) weighted sampling.
// It is the workhorse behind NEGATIVE sampling (unigram^0.75 distributions)
// and weighted neighbor selection.
type Alias struct {
	prob  []float64
	alias []int32
}

// aliasScratch holds the worklists reused across fillAlias calls so that
// batch construction (AliasIndex) performs no per-vertex allocation.
type aliasScratch struct {
	scaled []float64
	small  []int32
	large  []int32
}

// fillAlias builds a Walker alias table over weights into prob and alias
// (both len(weights)). Negative weights count as zero; an all-zero or empty
// weight vector degrades to uniform. Indices stored in alias are local to
// this table (0..len(weights)-1).
func fillAlias(prob []float64, alias []int32, weights []float64, s *aliasScratch) {
	n := len(weights)
	if n == 0 {
		return
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		for i := 0; i < n; i++ {
			prob[i] = 1
			alias[i] = int32(i)
		}
		return
	}
	if cap(s.scaled) < n {
		s.scaled = make([]float64, n)
		s.small = make([]int32, 0, n)
		s.large = make([]int32, 0, n)
	}
	scaled := s.scaled[:n]
	small := s.small[:0]
	large := s.large[:0]
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		sm := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[sm] = scaled[sm]
		alias[sm] = l
		scaled[l] -= 1 - scaled[sm]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = int32(i)
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = int32(i)
	}
	s.small = small[:0]
	s.large = large[:0]
}

// NewAlias builds an alias table over the given non-negative weights. A nil
// or all-zero weight vector yields a uniform table.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		return &Alias{}
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	fillAlias(a.prob, a.alias, weights, &aliasScratch{})
	return a
}

// drawAlias resolves one probe of a Walker table: keep slot i with
// probability prob[i], otherwise redirect to its alias. Both Alias draw
// variants funnel through this; AliasIndex.Draw repeats the two lines
// inline because constructing segment subslices costs ~15% on the weighted
// sampling hot path.
func drawAlias(prob []float64, alias []int32, i int, u float64) int {
	if u < prob[i] {
		return i
	}
	return int(alias[i])
}

// Draw samples an index according to the table's weights.
func (a *Alias) Draw(rng *rand.Rand) int {
	if len(a.prob) == 0 {
		return -1
	}
	return drawAlias(a.prob, a.alias, rng.Intn(len(a.prob)), rng.Float64())
}

// DrawRng is Draw over the engine's lock-free Rng.
func (a *Alias) DrawRng(rng *Rng) int {
	if len(a.prob) == 0 {
		return -1
	}
	return drawAlias(a.prob, a.alias, rng.Intn(len(a.prob)), rng.Float64())
}

// Len reports the table size.
func (a *Alias) Len() int { return len(a.prob) }
