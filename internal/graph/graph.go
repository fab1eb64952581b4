// Package graph provides the logical graph data model used throughout the
// AliGraph reproduction: simple directed/undirected graphs, Attributed
// Heterogeneous Graphs (AHGs) with typed vertices and edges carrying
// attribute vectors, and dynamic graphs as snapshot series.
//
// A Graph is an immutable, CSR-backed structure produced by a Builder.
// Physical concerns — deduplicated attribute indices, caches, partitions —
// live in internal/storage and internal/partition; this package only models
// the data, per Section 2 of the paper.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// ID identifies a vertex. IDs are dense: a finalized graph with n vertices
// uses IDs 0..n-1.
type ID = int64

// VertexType identifies one of the registered vertex types of a schema.
type VertexType int32

// EdgeType identifies one of the registered edge types of a schema.
type EdgeType int32

// Schema names the vertex and edge types of an attributed heterogeneous
// graph. A simple graph has exactly one vertex type and one edge type.
type Schema struct {
	vertexTypes []string
	edgeTypes   []string
}

// NewSchema creates a schema with the given type names. Both lists must be
// non-empty; per the AHG definition an AHG has |F_V| >= 2 and/or |F_E| >= 2,
// but simple graphs (one of each) are also representable.
func NewSchema(vertexTypes, edgeTypes []string) (*Schema, error) {
	if len(vertexTypes) == 0 || len(edgeTypes) == 0 {
		return nil, fmt.Errorf("graph: schema requires at least one vertex type and one edge type")
	}
	s := &Schema{
		vertexTypes: append([]string(nil), vertexTypes...),
		edgeTypes:   append([]string(nil), edgeTypes...),
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// static schemas.
func MustSchema(vertexTypes, edgeTypes []string) *Schema {
	s, err := NewSchema(vertexTypes, edgeTypes)
	if err != nil {
		panic(err)
	}
	return s
}

// SimpleSchema is the schema of a plain graph: one vertex type "vertex" and
// one edge type "edge".
func SimpleSchema() *Schema { return MustSchema([]string{"vertex"}, []string{"edge"}) }

// NumVertexTypes reports the number of vertex types.
func (s *Schema) NumVertexTypes() int { return len(s.vertexTypes) }

// NumEdgeTypes reports the number of edge types.
func (s *Schema) NumEdgeTypes() int { return len(s.edgeTypes) }

// VertexTypeName returns the name of vertex type t.
func (s *Schema) VertexTypeName(t VertexType) string { return s.vertexTypes[t] }

// EdgeTypeName returns the name of edge type t.
func (s *Schema) EdgeTypeName(t EdgeType) string { return s.edgeTypes[t] }

// VertexTypeByName resolves a vertex type name; ok is false if absent.
func (s *Schema) VertexTypeByName(name string) (VertexType, bool) {
	for i, n := range s.vertexTypes {
		if n == name {
			return VertexType(i), true
		}
	}
	return 0, false
}

// EdgeTypeByName resolves an edge type name; ok is false if absent.
func (s *Schema) EdgeTypeByName(name string) (EdgeType, bool) {
	for i, n := range s.edgeTypes {
		if n == name {
			return EdgeType(i), true
		}
	}
	return 0, false
}

// Heterogeneous reports whether the schema satisfies the AHG heterogeneity
// requirement |F_V| >= 2 and/or |F_E| >= 2.
func (s *Schema) Heterogeneous() bool {
	return len(s.vertexTypes) >= 2 || len(s.edgeTypes) >= 2
}

// Edge is a typed, weighted edge with an optional attribute vector.
type Edge struct {
	Src, Dst ID
	Type     EdgeType
	Weight   float64
	Attr     []float64
}

// adjacency is one direction of a CSR structure for a single edge type.
type adjacency struct {
	offs []int64   // len n+1
	dst  []ID      // len m_t
	w    []float64 // len m_t
	attr []int32   // index into edge attr pool; -1 if none; len m_t or nil
}

func (a *adjacency) neighbors(v ID) []ID {
	return a.dst[a.offs[v]:a.offs[v+1]]
}

func (a *adjacency) weights(v ID) []float64 {
	return a.w[a.offs[v]:a.offs[v+1]]
}

func (a *adjacency) degree(v ID) int {
	return int(a.offs[v+1] - a.offs[v])
}

// Graph is an immutable attributed heterogeneous graph with CSR adjacency
// per edge type and direction. Construct with a Builder.
type Graph struct {
	schema   *Schema
	directed bool

	n int
	m int

	vtype []VertexType
	vattr [][]float64 // raw per-vertex attribute vectors; nil entries allowed

	byVType [][]ID // vertices grouped by type

	out []adjacency // indexed by EdgeType
	in  []adjacency

	edgeAttrs [][]float64 // pool of edge attribute vectors

	scratch sync.Pool // of *Scratch, recycled across k-hop expansions
}

// Schema returns the graph's schema.
func (g *Graph) Schema() *Schema { return g.schema }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns n = |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns m = |E| (logical edges; for undirected graphs each edge
// counts once even though it is stored in both directions).
func (g *Graph) NumEdges() int { return g.m }

// VertexType returns the type of vertex v.
func (g *Graph) VertexType(v ID) VertexType { return g.vtype[v] }

// VertexAttr returns the raw attribute vector of v (may be nil). The slice
// is shared; callers must not modify it.
func (g *Graph) VertexAttr(v ID) []float64 { return g.vattr[v] }

// VerticesOfType returns the IDs of all vertices with type t. The slice is
// shared; callers must not modify it.
func (g *Graph) VerticesOfType(t VertexType) []ID { return g.byVType[t] }

// OutNeighbors returns the out-neighbors of v along edges of type t.
// For undirected graphs the full neighborhood is returned.
func (g *Graph) OutNeighbors(v ID, t EdgeType) []ID { return g.out[t].neighbors(v) }

// OutWeights returns the weights aligned with OutNeighbors(v, t).
func (g *Graph) OutWeights(v ID, t EdgeType) []float64 { return g.out[t].weights(v) }

// InNeighbors returns the in-neighbors of v along edges of type t.
func (g *Graph) InNeighbors(v ID, t EdgeType) []ID { return g.in[t].neighbors(v) }

// OutDegree returns the out-degree of v restricted to edge type t.
func (g *Graph) OutDegree(v ID, t EdgeType) int { return g.out[t].degree(v) }

// InDegree returns the in-degree of v restricted to edge type t.
func (g *Graph) InDegree(v ID, t EdgeType) int { return g.in[t].degree(v) }

// TotalOutDegree returns the out-degree of v summed across all edge types.
func (g *Graph) TotalOutDegree(v ID) int {
	d := 0
	for t := range g.out {
		d += g.out[t].degree(v)
	}
	return d
}

// TotalInDegree returns the in-degree of v summed across all edge types.
func (g *Graph) TotalInDegree(v ID) int {
	d := 0
	for t := range g.in {
		d += g.in[t].degree(v)
	}
	return d
}

// Neighbors returns Nb(v): the union (with multiplicity) of out-neighbors of
// v across all edge types. For undirected graphs this is the full
// neighborhood; for directed graphs use both Neighbors and InNeighbors per
// type for the in/out split.
func (g *Graph) Neighbors(v ID) []ID {
	n := make([]ID, 0, g.TotalOutDegree(v))
	for t := range g.out {
		n = append(n, g.out[t].neighbors(v)...)
	}
	return n
}

// EdgeAttr returns the attribute vector of the i-th out-edge of v under type
// t, or nil when the edge carries no attributes.
func (g *Graph) EdgeAttr(v ID, t EdgeType, i int) []float64 {
	a := g.out[t]
	if a.attr == nil {
		return nil
	}
	idx := a.attr[a.offs[v]+int64(i)]
	if idx < 0 {
		return nil
	}
	return g.edgeAttrs[idx]
}

// EdgesOfType calls fn for every stored edge of type t (one direction only
// for undirected graphs is not distinguished; every CSR entry is visited, so
// undirected edges are visited twice unless fn filters src < dst).
func (g *Graph) EdgesOfType(t EdgeType, fn func(src, dst ID, w float64) bool) {
	a := &g.out[t]
	for v := ID(0); v < ID(g.n); v++ {
		lo, hi := a.offs[v], a.offs[v+1]
		for i := lo; i < hi; i++ {
			if !fn(v, a.dst[i], a.w[i]) {
				return
			}
		}
	}
}

// NumEdgesOfType returns the number of CSR entries for edge type t
// (undirected edges count twice).
func (g *Graph) NumEdgesOfType(t EdgeType) int { return len(g.out[t].dst) }

// OutEdgeAt returns the type-t edge of rank r in EdgesOfType order (source
// ID, then list position), for 0 <= r < NumEdgesOfType(t). A uniform r makes
// it a uniform edge draw.
func (g *Graph) OutEdgeAt(t EdgeType, r int64) (src, dst ID, w float64) {
	a := &g.out[t]
	return ID(SearchOffsets(a.offs, r)), a.dst[r], a.w[r]
}

// SearchOffsets returns the slot i of a non-decreasing CSR offset array
// whose range [offs[i], offs[i+1]) holds r, for offs[0] <= r <
// offs[len(offs)-1]. Empty slots hold no rank, so the slot is unique.
func SearchOffsets(offs []int64, r int64) int {
	// The owning slot is the last i < len(offs)-1 with offs[i] <= r: an
	// empty slot j has offs[j+1] == offs[j], so it is never the last. i
	// satisfies offs[i] <= r throughout; each step halves the window [i,
	// i+n) that holds the answer. The step is a mask, not a branch: random
	// ranks make the branch a coin flip the CPU mispredicts half the time.
	i, n := 0, len(offs)-1
	for n > 1 {
		half := n >> 1
		i += half & int((offs[i+half]-r-1)>>63) // all ones iff offs[i+half] <= r
		n -= half
	}
	return i
}

// HasEdge reports whether an edge (u, v) of type t exists.
func (g *Graph) HasEdge(u, v ID, t EdgeType) bool {
	ns := g.out[t].neighbors(u)
	// CSR neighbor lists are sorted by destination at finalize time.
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Degrees returns the total out-degree of every vertex; useful for
// distribution analysis and negative-sampling tables.
func (g *Graph) Degrees() []int {
	d := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		d[v] = g.TotalOutDegree(ID(v))
	}
	return d
}
