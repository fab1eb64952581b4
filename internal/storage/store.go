package storage

import (
	"repro/internal/graph"
)

// Store is the physical organization of one graph partition: an adjacency
// table (delegated to the CSR graph) whose vertex and edge entries reference
// deduplicated attribute vectors in the indices I_V and I_E.
type Store struct {
	G *graph.Graph

	VIndex *AttributeIndex // I_V: vertex attributes
	EIndex *AttributeIndex // I_E: edge attributes

	vattrIdx []int32 // per-vertex index into VIndex, -1 when absent
}

// attrCacheRows sizes each LRU cache fronting I_V and I_E: small caches
// that capture the frequently accessed head of the attribute distribution.
const attrCacheRows = 4096

// BuildStore constructs the physical store for g, interning every vertex
// attribute vector into I_V. Edge attributes are interned lazily because the
// CSR already pools them; I_E is populated on first access patterns via
// InternEdgeAttr.
func BuildStore(g *graph.Graph) *Store {
	s := &Store{
		G:        g,
		VIndex:   NewAttributeIndex(attrCacheRows),
		EIndex:   NewAttributeIndex(attrCacheRows),
		vattrIdx: make([]int32, g.NumVertices()),
	}
	for v := 0; v < g.NumVertices(); v++ {
		s.vattrIdx[v] = s.VIndex.Intern(g.VertexAttr(graph.ID(v)))
	}
	return s
}

// VertexAttr fetches the attributes of v through I_V's cache.
func (s *Store) VertexAttr(v graph.ID) []float64 {
	return s.VIndex.Lookup(s.vattrIdx[v])
}

// VertexAttrIndex exposes the I_V index of v, matching the adjacency-table
// layout in Figure 4 of the paper.
func (s *Store) VertexAttrIndex(v graph.ID) int32 { return s.vattrIdx[v] }

// SpaceReport quantifies the separate-storage saving: bytes to store every
// attribute inline in the adjacency table versus the deduplicated layout.
type SpaceReport struct {
	InlineBytes int64 // O(n * N_D * N_L): attrs copied per adjacency entry
	DedupBytes  int64 // O(n * N_D + N_A * N_L): 4-byte indices + distinct vectors
	Distinct    int   // N_A
	Ratio       float64
}

// Space computes the space report for the current store.
func (s *Store) Space() SpaceReport {
	g := s.G
	var inline int64
	for v := 0; v < g.NumVertices(); v++ {
		attrLen := int64(len(g.VertexAttr(graph.ID(v))))
		// Inline layout repeats a vertex's attributes in the adjacency list
		// of each of its in-neighbors (neighbors materialize attrs locally).
		repeats := int64(g.TotalInDegree(graph.ID(v))) + 1
		inline += repeats * attrLen * 8
	}
	dedup := int64(4*g.NumVertices()) + s.VIndex.Bytes()
	r := SpaceReport{InlineBytes: inline, DedupBytes: dedup, Distinct: s.VIndex.NumDistinct()}
	if dedup > 0 {
		r.Ratio = float64(inline) / float64(dedup)
	}
	return r
}
