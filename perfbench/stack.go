package main

import (
	"fmt"
	"time"

	aligraph "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/storage"
)

// The shipped defaults every workload runs with.
const (
	numShards    = 2
	nbrCacheFrac = 0.2 // LRU neighbour cache over 20% of the vertices
	edgeType     = graph.EdgeType(0)
)

// phases is the wall time of each set-up stage of one stack.
type phases struct {
	generate, partition, shardBuild, dial, warmup time.Duration
}

// stack is one complete system under test: a generated Taobao-sim graph,
// hash-partitioned into two in-process shards that are served over
// loopback TCP, and a graph-free client that reached them through the
// retry layer the CLIs ship (ServeRPC -> DialRPC -> NewRetryTransport).
type stack struct {
	g       *graph.Graph
	servers []*cluster.Server
	rpcs    []*cluster.RPCServer
	tr      *cluster.RetryTransport
	rec     *recorder // nil unless traced
	cp      *aligraph.ClusterPlatform
	reg     *obs.Registry
	phases  phases
}

// buildStack generates the graph from seed and brings the cluster up. A
// non-nil tracer wraps the client's transport in a recorder.
func buildStack(scale float64, seed int64, tc *tracer) (*stack, error) {
	st := &stack{reg: obs.NewRegistry()}
	t0 := time.Now()
	cfg := dataset.TaobaoSmallConfig(scale)
	cfg.Seed = seed
	st.g = dataset.Taobao(cfg)
	t1 := time.Now()
	assign, err := partition.HashPartitioner{}.Partition(st.g, numShards)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	t2 := time.Now()
	st.servers = cluster.FromGraph(st.g, assign)
	t3 := time.Now()
	addrs := make([]string, len(st.servers))
	for i, s := range st.servers {
		s.RegisterObs(st.reg)
		rs, err := cluster.ServeRPC(s, "127.0.0.1:0")
		if err != nil {
			st.Close()
			return nil, err
		}
		st.rpcs = append(st.rpcs, rs)
		addrs[i] = rs.Addr()
	}
	rpcT, err := cluster.DialRPC(addrs)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.tr = cluster.NewRetryTransport(rpcT, numShards, cluster.DefaultCallPolicy(), uint64(seed))
	var t cluster.Transport = st.tr
	if tc != nil {
		st.rec = newRecorder(st.tr, tc)
		t = st.rec
	}
	boot, _, err := cluster.Bootstrap(t, 0)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	cache := storage.NewLRUNeighborCache(int(nbrCacheFrac * float64(len(boot.Of))))
	st.cp = aligraph.NewClusterPlatform(boot, t, cache, seed)
	st.cp.Client.RegisterObs(st.reg)
	st.phases = phases{generate: t1.Sub(t0), partition: t2.Sub(t1), shardBuild: t3.Sub(t2), dial: time.Since(t3)}
	return st, nil
}

// Close stops the client transport, the RPC listeners and the shards'
// background compactors, in that order.
func (st *stack) Close() {
	if st.tr != nil {
		st.tr.Close()
	}
	for _, rs := range st.rpcs {
		rs.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
}
