// Command aligraph-build loads a graph from TSV files, partitions it with
// one of the built-in partitioners, and reports the resulting layout: per-
// partition sizes, edge cut, importance-cache statistics and attribute
// dedup savings. With -demo it generates a Taobao-sim dataset instead of
// reading files (and can dump it with -out-vertices/-out-edges for use with
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
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/partition"
	"repro/internal/storage"
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

	st := storage.BuildStore(g)
	rep := st.Space()
	fmt.Printf("attribute store: %d distinct vectors, dedup %.2fMB vs inline %.2fMB (%.1fx)\n",
		rep.Distinct, float64(rep.DedupBytes)/1e6, float64(rep.InlineBytes)/1e6, rep.Ratio)

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
