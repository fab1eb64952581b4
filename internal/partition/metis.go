package partition

import (
	"sort"

	"repro/internal/graph"
)

// Metis is a METIS-style multilevel partitioner: the graph is coarsened by
// repeated heavy-edge matching, the coarsest graph is partitioned by greedy
// region growing, and the partition is projected back with boundary
// refinement at each level. As in the paper's recommendation it is the best
// choice for sparse graphs. It is deterministic: adjacency is scanned in
// ascending neighbour order and every tie goes to the lowest vertex or part.
type Metis struct {
	// MaxCoarseVertices stops coarsening once the graph is this small;
	// zero means 8*p.
	MaxCoarseVertices int
}

// Name implements VertexPartitioner.
func (Metis) Name() string { return "metis" }

// coarseGraph is an intermediate weighted graph in the multilevel hierarchy.
type coarseGraph struct {
	n      int
	vw     []int   // vertex weights (number of original vertices)
	adj    [][]nbr // adjacency with accumulated edge weights, by ascending to
	parent []int   // fine vertex -> coarse vertex (in the *finer* graph)
}

// nbr is one weighted adjacency entry.
type nbr struct {
	to int
	w  float64
}

// sortedAdj turns per-vertex weight sums into adjacency lists in ascending
// neighbour order. Each sum was accumulated in a fixed order, so its bits
// do not depend on map iteration.
func sortedAdj(sums []map[int]float64) [][]nbr {
	adj := make([][]nbr, len(sums))
	for v, m := range sums {
		adj[v] = make([]nbr, 0, len(m))
		for u, w := range m {
			adj[v] = append(adj[v], nbr{u, w})
		}
		sort.Slice(adj[v], func(a, b int) bool { return adj[v][a].to < adj[v][b].to })
	}
	return adj
}

func buildCoarse(g *graph.Graph) *coarseGraph {
	n := g.NumVertices()
	cg := &coarseGraph{n: n, vw: make([]int, n)}
	sums := make([]map[int]float64, n)
	for v := 0; v < n; v++ {
		cg.vw[v] = 1
		sums[v] = make(map[int]float64)
	}
	for t := 0; t < g.Schema().NumEdgeTypes(); t++ {
		g.EdgesOfType(graph.EdgeType(t), func(src, dst graph.ID, w float64) bool {
			if src == dst {
				return true
			}
			sums[src][int(dst)] += w
			sums[dst][int(src)] += w
			return true
		})
	}
	cg.adj = sortedAdj(sums)
	return cg
}

// coarsen performs one level of heavy-edge matching.
func (cg *coarseGraph) coarsen() *coarseGraph {
	match := make([]int, cg.n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in increasing degree order (small-degree first gives
	// better matchings on power-law graphs).
	order := make([]int, cg.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(cg.adj[order[a]]) < len(cg.adj[order[b]]) })

	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, -1.0
		for _, e := range cg.adj[v] {
			if match[e.to] == -1 && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}

	// Number coarse vertices.
	coarseID := make([]int, cg.n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	next := 0
	for v := 0; v < cg.n; v++ {
		if coarseID[v] != -1 {
			continue
		}
		coarseID[v] = next
		if match[v] != v {
			coarseID[match[v]] = next
		}
		next = next + 1
	}

	out := &coarseGraph{
		n:      next,
		vw:     make([]int, next),
		parent: coarseID,
	}
	sums := make([]map[int]float64, next)
	for i := 0; i < next; i++ {
		sums[i] = make(map[int]float64)
	}
	for v := 0; v < cg.n; v++ {
		out.vw[coarseID[v]] += cg.vw[v]
		for _, e := range cg.adj[v] {
			cu, cv := coarseID[e.to], coarseID[v]
			if cu != cv {
				sums[cv][cu] += e.w
			}
		}
	}
	out.adj = sortedAdj(sums)
	return out
}

// initialPartition grows p regions greedily from seed vertices, weighting by
// vertex weight to balance original-vertex counts.
func (cg *coarseGraph) initialPartition(p int) []int {
	part := make([]int, cg.n)
	for i := range part {
		part[i] = -1
	}
	total := 0
	for _, w := range cg.vw {
		total += w
	}
	target := (total + p - 1) / p

	// Seeds: spread across the degree-sorted order.
	order := make([]int, cg.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(cg.adj[order[a]]) > len(cg.adj[order[b]]) })

	load := make([]int, p)
	cur := 0
	var frontier []int
	assign := func(v, pt int) {
		part[v] = pt
		load[pt] += cg.vw[v]
		frontier = append(frontier, v)
	}
	for _, seed := range order {
		if part[seed] != -1 {
			continue
		}
		if cur >= p {
			cur = 0 // wrap: remaining components go to least-loaded region
			least := 0
			for i := 1; i < p; i++ {
				if load[i] < load[least] {
					least = i
				}
			}
			cur = least
		}
		frontier = frontier[:0]
		assign(seed, cur)
		for len(frontier) > 0 && load[cur] < target {
			v := frontier[0]
			frontier = frontier[1:]
			for _, e := range cg.adj[v] {
				if part[e.to] == -1 && load[cur] < target {
					assign(e.to, cur)
				}
			}
		}
		if cur < p {
			cur++
		}
	}
	// Any leftovers go to the least loaded part.
	for v := 0; v < cg.n; v++ {
		if part[v] == -1 {
			least := 0
			for i := 1; i < p; i++ {
				if load[i] < load[least] {
					least = i
				}
			}
			part[v] = least
			load[least] += cg.vw[v]
		}
	}
	return part
}

// refine performs greedy boundary refinement: move a vertex to the
// neighboring partition with the highest gain if it does not worsen balance.
func (cg *coarseGraph) refine(part []int, p int, passes int) {
	load := make([]int, p)
	for v := 0; v < cg.n; v++ {
		load[part[v]] += cg.vw[v]
	}
	total := 0
	for _, w := range cg.vw {
		total += w
	}
	maxLoad := int(1.1*float64(total)/float64(p)) + 1

	gain := make([]float64, p)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < cg.n; v++ {
			cur := part[v]
			// Gain of moving v to part q: sum w(v,u in q) - sum w(v,u in cur).
			clear(gain)
			for _, e := range cg.adj[v] {
				gain[part[e.to]] += e.w
			}
			curW := gain[cur]
			bestQ, bestG := -1, 0.0
			for q, w := range gain {
				if g := w - curW; q != cur && g > bestG && load[q]+cg.vw[v] <= maxLoad {
					bestQ, bestG = q, g
				}
			}
			if bestQ >= 0 {
				load[cur] -= cg.vw[v]
				load[bestQ] += cg.vw[v]
				part[v] = bestQ
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// Partition implements VertexPartitioner.
func (m Metis) Partition(g *graph.Graph, p int) (*Assignment, error) {
	if err := validate(g, p); err != nil {
		return nil, err
	}
	if p == 1 {
		return &Assignment{P: 1, Of: make([]int, g.NumVertices())}, nil
	}
	limit := m.MaxCoarseVertices
	if limit <= 0 {
		limit = 8 * p
	}

	levels := []*coarseGraph{buildCoarse(g)}
	for levels[len(levels)-1].n > limit {
		next := levels[len(levels)-1].coarsen()
		if next.n >= levels[len(levels)-1].n {
			break // matching stalled (e.g. star graphs)
		}
		levels = append(levels, next)
	}

	coarsest := levels[len(levels)-1]
	part := coarsest.initialPartition(p)
	coarsest.refine(part, p, 4)

	// Project back through the hierarchy, refining at each level.
	for li := len(levels) - 1; li >= 1; li-- {
		finer := levels[li-1]
		proj := make([]int, finer.n)
		for v := 0; v < finer.n; v++ {
			proj[v] = part[levels[li].parent[v]]
		}
		part = proj
		finer.refine(part, p, 2)
	}

	return &Assignment{P: p, Of: part}, nil
}
