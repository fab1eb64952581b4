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
//   - Neighbour draws are uniform over a vertex's out-list. Edge weights
//     stay in the graph and ride on TRAVERSE edges (Edge.Weight); the
//     weighted draws this package offers are the Alias tables behind
//     NEGATIVE and the learnable Weighted sampler.
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
// and degree-proportional vertex selection.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table over the given weights. Negative weights
// count as zero; a nil or all-zero weight vector yields a uniform table.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		return &Alias{}
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	prob, alias := a.prob, a.alias
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
		return a
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
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
	return a
}

// drawAlias resolves one probe of a Walker table: keep slot i with
// probability prob[i], otherwise redirect to its alias. Both Alias draw
// variants funnel through this.
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
