// Command aligraph-server runs one graph-server partition over TCP, speaking
// the cluster package's binary RPC protocol.
// It loads a TSV graph (or generates Taobao-sim with -demo), partitions it,
// keeps the shard selected by -part, and serves the batched RPC surface —
// Attrs fetches plus the sampling RPCs behind distributed training
// (SampleNeighbors fixed-width uniform draws, SampleEdges, NegativePool,
// Stats), the Update RPC applying
// atomic live mutation batches onto the shard's multi-version snapshot
// store, the Lease/Release RPCs that let training clients pin a
// consistent epoch while updates stream in, and the Compact RPC folding
// old snapshot overlays into a fresh base — until interrupted. Compaction
// also self-triggers on an overlay-size threshold (-compact-threshold), so
// a server under an unbounded update stream runs in bounded memory:
// overlays behind the retention window fold into the base while leased
// epochs stay readable and clients observe nothing. -metrics-addr serves
// the shard's observability registry (per-RPC latency histograms,
// snapshot-store gauges) at /metrics, /metrics.json and /debug/pprof/. A full cluster is one
// aligraph-server process per partition; clients dial all of them
// (`aligraph-train -cluster [-stream]`, or see examples/distributed for
// the in-process equivalent).
//
// Usage:
//
//	aligraph-server -demo -partitions 2 -part 0 -addr 127.0.0.1:7701
//	aligraph-server -vertices v.tsv -edges e.tsv -vertex-types user,item \
//	    -edge-types click,buy -partitions 4 -part 2 -addr :7703 \
//	    -compact-threshold 200000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/partition"
)

func main() {
	var (
		verticesPath = flag.String("vertices", "", "vertex TSV path")
		edgesPath    = flag.String("edges", "", "edge TSV path")
		vertexTypes  = flag.String("vertex-types", "vertex", "comma-separated vertex type names")
		edgeTypes    = flag.String("edge-types", "edge", "comma-separated edge type names")
		directed     = flag.Bool("directed", true, "treat edges as directed")
		partitioner  = flag.String("partitioner", "hash", "metis|streaming|hash|edgecut")
		partitions   = flag.Int("partitions", 1, "total number of partitions")
		part         = flag.Int("part", 0, "which partition this server owns")
		addr         = flag.String("addr", "127.0.0.1:7700", "listen address")
		demo         = flag.Bool("demo", false, "generate Taobao-sim instead of reading files")
		scale        = flag.Float64("scale", 0.1, "demo dataset scale")
		compactThr   = flag.Int("compact-threshold", 100000, "fold old snapshot overlays into a fresh base once the head overlay holds this many entries (0 disables auto-compaction; the Compact RPC always works)")
		metricsAddr  = flag.String("metrics-addr", "", "serve observability on this address (/metrics text, /metrics.json, /debug/pprof/)")
	)
	flag.Parse()

	var g *graph.Graph
	switch {
	case *demo:
		g = dataset.Taobao(dataset.TaobaoSmallConfig(*scale))
	case *verticesPath != "" && *edgesPath != "":
		schema, err := graph.NewSchema(strings.Split(*vertexTypes, ","), strings.Split(*edgeTypes, ","))
		if err != nil {
			log.Fatal(err)
		}
		if g, err = graphio.LoadFiles(schema, *directed, *verticesPath, *edgesPath); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -vertices and -edges, or -demo")
	}
	if *part < 0 || *part >= *partitions {
		log.Fatalf("-part %d out of range for %d partitions", *part, *partitions)
	}

	pt, err := partition.ByName(*partitioner)
	if err != nil {
		log.Fatal(err)
	}
	a, err := pt.Partition(g, *partitions)
	if err != nil {
		log.Fatal(err)
	}
	servers := cluster.FromGraph(g, a)
	srv := servers[*part]
	srv.SetCompactThreshold(*compactThr)

	rpcSrv, err := cluster.ServeRPC(srv, *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligraph-server: partition %d/%d on %s (%d vertices, %d edges)\n",
		*part, *partitions, rpcSrv.Addr(), srv.NumLocalVertices(), srv.NumLocalEdges())

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.RegisterObs(reg)
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer msrv.Close()
		fmt.Printf("aligraph-server: metrics on http://%s/metrics\n", msrv.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	rpcSrv.Close()
	fmt.Println("aligraph-server: shut down")
}
