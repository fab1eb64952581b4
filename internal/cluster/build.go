package cluster

import (
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// This file implements the parallel graph-building pipeline measured in
// Figure 7: raw edges are assigned to partitions by the ASSIGN function
// (Algorithm 2 lines 1-4) and loaded into graph servers by a configurable
// number of workers. Build time should fall as workers are added, and even
// large graphs build in minutes rather than the hours PowerGraph needs.

// RawEdge is an unloaded edge record as it would arrive from a file system.
// Shards store no edge weights: servers ignore Weight, and the wire codec
// does not send it.
type RawEdge struct {
	Src, Dst graph.ID
	Type     graph.EdgeType
	Weight   float64
}

// RawVertex is an unloaded vertex record.
type RawVertex struct {
	ID   graph.ID
	Type graph.VertexType
	Attr []float64
}

// BuildConfig configures the pipeline.
type BuildConfig struct {
	NumPartitions int
	NumWorkers    int // parallel loader goroutines; <=0 means GOMAXPROCS
	NumEdgeTypes  int
	// Assign maps a source vertex to its partition (the ASSIGN function).
	Assign func(src graph.ID) int
	// Schema, when set, is served to bootstrapping workers; nil serves
	// generated type names.
	Schema *graph.Schema
}

// BuildServers runs the load pipeline: vertices and edges are sharded by
// Assign and ingested by NumWorkers parallel loaders into per-partition
// servers. It returns the sealed servers and a vertex assignment usable by
// clients.
func BuildServers(vertices []RawVertex, edges []RawEdge, cfg BuildConfig) ([]*Server, *partition.Assignment) {
	p := cfg.NumPartitions
	workers := cfg.NumWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	servers := make([]*Server, p)
	for i := range servers {
		servers[i] = NewServer(i, cfg.NumEdgeTypes)
	}

	// Shard records by destination partition. Sharding is the sequential
	// ASSIGN pass; loading is the parallel part.
	vShards := make([][]RawVertex, p)
	for _, v := range vertices {
		q := cfg.Assign(v.ID)
		vShards[q] = append(vShards[q], v)
	}
	eShards := make([][]RawEdge, p)
	for _, e := range edges {
		q := cfg.Assign(e.Src)
		eShards[q] = append(eShards[q], e)
	}

	// Parallel load. Each shard is owned by exactly one loader task, so
	// server mutation needs no cross-task coordination beyond the server's
	// own lock (kept for the dynamic-update path).
	type task struct{ part int }
	tasks := make(chan task, p)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				s := servers[tk.part]
				for _, v := range vShards[tk.part] {
					s.AddVertex(v.ID, v.Attr)
				}
				for _, e := range eShards[tk.part] {
					s.AddEdge(e.Src, e.Dst, e.Type)
				}
				s.Seal()
			}
		}()
	}
	for q := 0; q < p; q++ {
		tasks <- task{q}
	}
	close(tasks)
	wg.Wait()

	// Derive the assignment for client routing.
	maxID := graph.ID(-1)
	for _, v := range vertices {
		if v.ID > maxID {
			maxID = v.ID
		}
	}
	of := make([]int, maxID+1)
	for _, v := range vertices {
		of[v.ID] = cfg.Assign(v.ID)
	}
	assign := &partition.Assignment{P: p, Of: of}
	for _, s := range servers {
		s.SetBootstrap(assign, cfg.Schema)
	}
	return servers, assign
}

// Extract flattens a finalized graph into raw vertex and edge records, as a
// stand-in for reading source files; benches use it to feed BuildServers.
func Extract(g *graph.Graph) ([]RawVertex, []RawEdge) {
	vs := make([]RawVertex, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		vs[v] = RawVertex{ID: graph.ID(v), Type: g.VertexType(graph.ID(v)), Attr: g.VertexAttr(graph.ID(v))}
	}
	var es []RawEdge
	for t := 0; t < g.Schema().NumEdgeTypes(); t++ {
		g.EdgesOfType(graph.EdgeType(t), func(src, dst graph.ID, _ float64) bool {
			es = append(es, RawEdge{Src: src, Dst: dst, Type: graph.EdgeType(t)})
			return true
		})
	}
	return vs, es
}

// FromGraph builds servers directly from a finalized graph using a vertex
// assignment, for tests and the Figure 9 cache benchmarks.
func FromGraph(g *graph.Graph, a *partition.Assignment) []*Server {
	servers := make([]*Server, a.P)
	for i := range servers {
		servers[i] = NewServer(i, g.Schema().NumEdgeTypes())
	}
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.ID(v)
		s := servers[a.Part(vid)]
		s.AddVertex(vid, g.VertexAttr(vid))
		for t := 0; t < g.Schema().NumEdgeTypes(); t++ {
			et := graph.EdgeType(t)
			for _, u := range g.OutNeighbors(vid, et) {
				s.AddEdge(vid, u, et)
			}
		}
	}
	for _, s := range servers {
		s.Seal()
		s.SetBootstrap(a, g.Schema())
	}
	return servers
}
