// Command aligraph-build loads a graph from TSV files, partitions it with
// one of the built-in partitioners, and reports the resulting layout: per-
// partition sizes, edge cut, importance-cache statistics, and what the
// shards built from the partition hold: the live heap they take per stored
// edge and per vertex, and each shard base's distinct attribute patterns.
// With -demo it generates a Taobao-sim dataset instead of reading files
// (and can dump it with -out-vertices/-out-edges for use with
// aligraph-server).
//
// Usage:
//
//	aligraph-build -vertices v.tsv -edges e.tsv \
//	    -vertex-types user,item -edge-types click,buy \
//	    -partitioner metis -partitions 4
//	aligraph-build -demo -scale 0.2 -out-vertices v.tsv -out-edges e.tsv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/version"
)

func main() {
	var (
		verticesPath = flag.String("vertices", "", "vertex TSV path")
		edgesPath    = flag.String("edges", "", "edge TSV path")
		vertexTypes  = flag.String("vertex-types", "vertex", "comma-separated vertex type names")
		edgeTypes    = flag.String("edge-types", "edge", "comma-separated edge type names")
		directed     = flag.Bool("directed", true, "treat edges as directed")
		partitioner  = flag.String("partitioner", "metis", "metis|streaming|hash|edgecut")
		partitions   = flag.Int("partitions", 4, "number of partitions")
		cacheTau     = flag.Float64("cache-threshold", 0.2, "importance cache threshold (0 disables)")
		demo         = flag.Bool("demo", false, "generate Taobao-sim instead of reading files")
		scale        = flag.Float64("scale", 0.1, "demo dataset scale")
		outVertices  = flag.String("out-vertices", "", "write the (demo) vertex TSV here")
		outEdges     = flag.String("out-edges", "", "write the (demo) edge TSV here")
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

	fmt.Printf("graph: %d vertices, %d edges, %d vertex types, %d edge types\n",
		g.NumVertices(), g.NumEdges(), g.Schema().NumVertexTypes(), g.Schema().NumEdgeTypes())

	pt, err := partition.ByName(*partitioner)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	a, err := pt.Partition(g, *partitions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition (%s, p=%d): %v, sizes %v, cut %.1f%%, imbalance %.2f\n",
		pt.Name(), *partitions, time.Since(start).Round(time.Millisecond),
		a.Sizes(), 100*a.CutFraction(g), a.Imbalance())

	reportShards(g, a)

	if *cacheTau > 0 {
		sel := storage.SelectImportant(g, 1, *cacheTau)
		fmt.Printf("importance cache (tau=%.2f): %d vertices (%.1f%%)\n",
			*cacheTau, len(sel), 100*float64(len(sel))/float64(g.NumVertices()))
	}

	if *outVertices != "" {
		f, err := os.Create(*outVertices)
		if err != nil {
			log.Fatal(err)
		}
		if err := graphio.WriteVertices(f, g); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *outVertices)
	}
	if *outEdges != "" {
		f, err := os.Create(*outEdges)
		if err != nil {
			log.Fatal(err)
		}
		if err := graphio.WriteEdges(f, g); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *outEdges)
	}
}

// liveHeap forces a collection and reads the heap it left live, in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// reportShards builds the shards of assignment a and prints the live heap
// they add per stored edge and per vertex, then each shard base's distinct
// attribute patterns: the table its one-byte attribute codes index, or the
// note that the base holds its rows as values.
func reportShards(g *graph.Graph, a *partition.Assignment) {
	before := liveHeap()
	servers := cluster.FromGraph(g, a)
	added := liveHeap() - before
	edges, vertices := 0, 0
	for _, s := range servers {
		edges += s.NumLocalEdges()
		vertices += s.NumLocalVertices()
	}
	fmt.Printf("shards: %.2f MB live heap, %.1f B per stored edge (%d), %.1f B per vertex (%d)\n",
		added/1e6, added/float64(max(edges, 1)), edges, added/float64(max(vertices, 1)), vertices)
	for i, s := range servers {
		table := s.Store().HeadView().AttrTable()
		if table == nil {
			fmt.Printf("  shard %d base: attribute rows stored as values (more than %d patterns)\n", i, version.MaxCodes)
			continue
		}
		shown, more := table, ""
		if len(shown) > 16 {
			shown, more = shown[:16], " ..."
		}
		fmt.Printf("  shard %d base: %d distinct attribute patterns %v%s\n", i, len(table), shown, more)
	}
}
