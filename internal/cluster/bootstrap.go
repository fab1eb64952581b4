package cluster

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
)

// This file implements the graph-free worker bootstrap: the servers, which
// already hold the partitioned graph, also serve the global partition
// assignment and schema. A training worker therefore starts by dialing the
// cluster and asking for its view of the world instead of loading the whole
// graph locally just to recompute the deterministic assignment — the
// ROADMAP's "worker-free assignment bootstrap" item.

// BootstrapRequest asks a server for the cluster bootstrap information.
type BootstrapRequest struct{}

// BootstrapReply carries everything a worker needs to start graph-free:
// the vertex->partition assignment (dense IDs, so len(Assign) is the vertex
// universe size) and the schema's type names.
type BootstrapReply struct {
	Partitions  int
	Assign      []int
	VertexTypes []string
	EdgeTypes   []string
}

// SetBootstrap installs the bootstrap answer on the server. The cluster
// build paths (FromGraph, BuildServers) call it on every server so any
// shard can bootstrap a worker; schema may be nil when only type counts are
// known, in which case generated names are served.
func (s *Server) SetBootstrap(a *partition.Assignment, schema *graph.Schema) {
	reply := &BootstrapReply{
		Partitions: a.P,
		Assign:     append([]int(nil), a.Of...),
	}
	if schema != nil {
		for t := 0; t < schema.NumVertexTypes(); t++ {
			reply.VertexTypes = append(reply.VertexTypes, schema.VertexTypeName(graph.VertexType(t)))
		}
		for t := 0; t < schema.NumEdgeTypes(); t++ {
			reply.EdgeTypes = append(reply.EdgeTypes, schema.EdgeTypeName(graph.EdgeType(t)))
		}
	} else {
		for t := 0; t < s.store.NumEdgeTypes(); t++ {
			reply.EdgeTypes = append(reply.EdgeTypes, fmt.Sprintf("edge%d", t))
		}
		reply.VertexTypes = []string{"vertex"}
	}
	s.mu.Lock()
	s.boot = reply
	s.mu.Unlock()
}

// ServeBootstrap answers a bootstrap request.
func (s *Server) ServeBootstrap(_ BootstrapRequest, reply *BootstrapReply) error {
	defer obsSince(&s.met.rpc[MBootstrap], time.Now())
	s.mu.RLock()
	boot := s.boot
	s.mu.RUnlock()
	if boot == nil {
		return fmt.Errorf("cluster: server %d has no bootstrap information", s.ID)
	}
	*reply = *boot
	return nil
}

// Bootstrap fetches the partition assignment and schema from the server
// owning partition part (any server works; 0 is the convention). It is how
// `aligraph-train -cluster` and examples/distributed start without loading
// the graph locally.
func Bootstrap(t Transport, part int) (*partition.Assignment, *graph.Schema, error) {
	var reply BootstrapReply
	if err := t.Bootstrap(part, BootstrapRequest{}, &reply); err != nil {
		return nil, nil, err
	}
	if reply.Partitions <= 0 || len(reply.Assign) == 0 {
		return nil, nil, fmt.Errorf("cluster: empty bootstrap reply from partition %d", part)
	}
	schema, err := graph.NewSchema(reply.VertexTypes, reply.EdgeTypes)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: bootstrap schema: %w", err)
	}
	return &partition.Assignment{P: reply.Partitions, Of: reply.Assign}, schema, nil
}
