// Package graphio reads and writes graphs in a simple TSV interchange
// format, supporting the paper's claim that AliGraph "supports various
// kinds of raw data from different file systems, partitioned or not".
//
// Vertex file: one record per line,
//
//	id \t vertex-type-name [\t attr1,attr2,...]
//
// Edge file: one record per line,
//
//	src \t dst \t edge-type-name \t weight [\t attr1,attr2,...]
//
// Vertex IDs in the files are arbitrary int64 keys; they are densified in
// first-seen order and the mapping is returned.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Loader incrementally assembles a graph from TSV streams.
type Loader struct {
	schema  *graph.Schema
	builder *graph.Builder
	idMap   map[int64]graph.ID
}

// NewLoader creates a loader for the given schema.
func NewLoader(schema *graph.Schema, directed bool) *Loader {
	return &Loader{
		schema:  schema,
		builder: graph.NewBuilder(schema, directed),
		idMap:   make(map[int64]graph.ID),
	}
}

// ReadVertices consumes a vertex TSV stream.
func (l *Loader) ReadVertices(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 2 {
			return fmt.Errorf("graphio: vertex line %d: need id and type", line)
		}
		rawID, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graphio: vertex line %d: bad id %q", line, fields[0])
		}
		vt, ok := l.schema.VertexTypeByName(fields[1])
		if !ok {
			return fmt.Errorf("graphio: vertex line %d: unknown vertex type %q", line, fields[1])
		}
		var attr []float64
		if len(fields) >= 3 && fields[2] != "" {
			attr, err = parseAttrs(fields[2])
			if err != nil {
				return fmt.Errorf("graphio: vertex line %d: %v", line, err)
			}
		}
		if _, dup := l.idMap[rawID]; dup {
			return fmt.Errorf("graphio: vertex line %d: duplicate id %d", line, rawID)
		}
		l.idMap[rawID] = l.builder.AddVertex(vt, attr)
	}
	return sc.Err()
}

// ReadEdges consumes an edge TSV stream; all endpoints must have been
// loaded.
func (l *Loader) ReadEdges(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 3 {
			return fmt.Errorf("graphio: edge line %d: need src, dst and type", line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graphio: edge line %d: bad src %q", line, fields[0])
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graphio: edge line %d: bad dst %q", line, fields[1])
		}
		et, ok := l.schema.EdgeTypeByName(fields[2])
		if !ok {
			return fmt.Errorf("graphio: edge line %d: unknown edge type %q", line, fields[2])
		}
		w := 1.0
		if len(fields) >= 4 && fields[3] != "" {
			w, err = strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return fmt.Errorf("graphio: edge line %d: bad weight %q", line, fields[3])
			}
		}
		var attr []float64
		if len(fields) >= 5 && fields[4] != "" {
			attr, err = parseAttrs(fields[4])
			if err != nil {
				return fmt.Errorf("graphio: edge line %d: %v", line, err)
			}
		}
		s, ok := l.idMap[src]
		if !ok {
			return fmt.Errorf("graphio: edge line %d: unknown vertex %d", line, src)
		}
		d, ok := l.idMap[dst]
		if !ok {
			return fmt.Errorf("graphio: edge line %d: unknown vertex %d", line, dst)
		}
		l.builder.AddEdgeAttr(s, d, et, w, attr)
	}
	return sc.Err()
}

// Finalize returns the built graph and the raw-id to dense-id mapping.
func (l *Loader) Finalize() (*graph.Graph, map[int64]graph.ID) {
	return l.builder.Finalize(), l.idMap
}

// LoadFiles builds a graph from a vertex TSV file and an edge TSV file. An
// error names the file it came from.
func LoadFiles(schema *graph.Schema, directed bool, verticesPath, edgesPath string) (*graph.Graph, error) {
	l := NewLoader(schema, directed)
	if err := readFile(verticesPath, l.ReadVertices); err != nil {
		return nil, err
	}
	if err := readFile(edgesPath, l.ReadEdges); err != nil {
		return nil, err
	}
	g, _ := l.Finalize()
	return g, nil
}

// readFile opens path and hands it to read.
func readFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err // *fs.PathError names the path
	}
	defer f.Close()
	if err := read(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func parseAttrs(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad attribute %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// WriteVertices emits the vertex TSV of g.
func WriteVertices(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		vt := g.Schema().VertexTypeName(g.VertexType(graph.ID(v)))
		if attr := g.VertexAttr(graph.ID(v)); attr != nil {
			fmt.Fprintf(bw, "%d\t%s\t%s\n", v, vt, formatAttrs(attr))
		} else {
			fmt.Fprintf(bw, "%d\t%s\n", v, vt)
		}
	}
	return bw.Flush()
}

// WriteEdges emits the edge TSV of g (undirected edges written once).
func WriteEdges(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for t := 0; t < g.Schema().NumEdgeTypes(); t++ {
		name := g.Schema().EdgeTypeName(graph.EdgeType(t))
		var ferr error
		g.EdgesOfType(graph.EdgeType(t), func(src, dst graph.ID, wt float64) bool {
			if !g.Directed() && src > dst {
				return true
			}
			_, ferr = fmt.Fprintf(bw, "%d\t%d\t%s\t%g\n", src, dst, name, wt)
			return ferr == nil
		})
		if ferr != nil {
			return ferr
		}
	}
	return bw.Flush()
}

// WriteEmbeddings emits one "id \t v1,v2,..." line per row of emb.
func WriteEmbeddings(w io.Writer, emb interface {
	Row(i int) []float64
}, n int) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "%d\t%s\n", i, formatAttrs(emb.Row(i)))
	}
	return bw.Flush()
}

func formatAttrs(a []float64) string {
	parts := make([]string, len(a))
	for i, v := range a {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
