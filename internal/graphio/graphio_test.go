package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func schema() *graph.Schema {
	return graph.MustSchema([]string{"user", "item"}, []string{"click", "buy"})
}

func TestRoundTrip(t *testing.T) {
	l := NewLoader(schema(), true)
	vs := "100\tuser\t1,0\n200\titem\t9.5\n300\titem\n"
	es := "100\t200\tclick\t2.5\n100\t300\tbuy\n"
	if err := l.ReadVertices(strings.NewReader(vs)); err != nil {
		t.Fatal(err)
	}
	if err := l.ReadEdges(strings.NewReader(es)); err != nil {
		t.Fatal(err)
	}
	g, idMap := l.Finalize()
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	u := idMap[100]
	if g.VertexType(u) != 0 {
		t.Fatal("vertex type")
	}
	if a := g.VertexAttr(idMap[200]); len(a) != 1 || a[0] != 9.5 {
		t.Fatalf("attr = %v", a)
	}
	if g.VertexAttr(idMap[300]) != nil {
		t.Fatal("attr should be nil")
	}
	ws := g.OutWeights(u, 0)
	if len(ws) != 1 || ws[0] != 2.5 {
		t.Fatalf("weight = %v", ws)
	}
	if w := g.OutWeights(u, 1); len(w) != 1 || w[0] != 1.0 {
		t.Fatalf("default weight = %v", w)
	}

	// Write it back out and reload.
	var vbuf, ebuf bytes.Buffer
	if err := WriteVertices(&vbuf, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdges(&ebuf, g); err != nil {
		t.Fatal(err)
	}
	l2 := NewLoader(schema(), true)
	if err := l2.ReadVertices(&vbuf); err != nil {
		t.Fatal(err)
	}
	if err := l2.ReadEdges(&ebuf); err != nil {
		t.Fatal(err)
	}
	g2, _ := l2.Finalize()
	if g2.NumVertices() != 3 || g2.NumEdges() != 2 {
		t.Fatalf("round trip: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	l := NewLoader(schema(), true)
	in := "# header\n\n1\tuser\n"
	if err := l.ReadVertices(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	g, _ := l.Finalize()
	if g.NumVertices() != 1 {
		t.Fatal("comment handling")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name     string
		vertices string
		edges    string
	}{
		{"missing type", "1\n", ""},
		{"bad id", "x\tuser\n", ""},
		{"unknown vtype", "1\tnope\n", ""},
		{"bad attr", "1\tuser\tx,y\n", ""},
		{"dup id", "1\tuser\n1\tuser\n", ""},
		{"edge fields", "1\tuser\n", "1\t1\n"},
		{"edge unknown type", "1\tuser\n", "1\t1\tnope\n"},
		{"edge bad weight", "1\tuser\n", "1\t1\tclick\tx\n"},
		{"edge unknown vertex", "1\tuser\n", "1\t2\tclick\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLoader(schema(), true)
			verr := l.ReadVertices(strings.NewReader(tc.vertices))
			if tc.edges == "" {
				if verr == nil {
					t.Fatal("expected vertex error")
				}
				return
			}
			if verr != nil {
				t.Fatal(verr)
			}
			if err := l.ReadEdges(strings.NewReader(tc.edges)); err == nil {
				t.Fatal("expected edge error")
			}
		})
	}
}

func TestEdgeAttrs(t *testing.T) {
	l := NewLoader(schema(), true)
	if err := l.ReadVertices(strings.NewReader("1\tuser\n2\titem\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.ReadEdges(strings.NewReader("1\t2\tclick\t1.0\t7,8\n")); err != nil {
		t.Fatal(err)
	}
	g, idMap := l.Finalize()
	a := g.EdgeAttr(idMap[1], 0, 0)
	if len(a) != 2 || a[1] != 8 {
		t.Fatalf("edge attr = %v", a)
	}
}

// writeFile writes body to name under dir and returns the path.
func writeFile(t *testing.T, dir, name string, write func(*os.File) error) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFilesRoundTrip: a demo graph written with WriteVertices and
// WriteEdges loads back through LoadFiles with the same types, attributes,
// adjacency and weights.
func TestLoadFilesRoundTrip(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.05))
	dir := t.TempDir()
	vpath := writeFile(t, dir, "v.tsv", func(f *os.File) error { return WriteVertices(f, g) })
	epath := writeFile(t, dir, "e.tsv", func(f *os.File) error { return WriteEdges(f, g) })

	got, err := LoadFiles(g.Schema(), g.Directed(), vpath, epath)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded n=%d m=%d, wrote n=%d m=%d", got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := graph.ID(0); v < graph.ID(g.NumVertices()); v++ {
		if got.VertexType(v) != g.VertexType(v) {
			t.Fatalf("vertex %d: type %d, want %d", v, got.VertexType(v), g.VertexType(v))
		}
		if !reflect.DeepEqual(got.VertexAttr(v), g.VertexAttr(v)) {
			t.Fatalf("vertex %d: attrs %v, want %v", v, got.VertexAttr(v), g.VertexAttr(v))
		}
		for et := graph.EdgeType(0); et < graph.EdgeType(g.Schema().NumEdgeTypes()); et++ {
			if !reflect.DeepEqual(got.OutNeighbors(v, et), g.OutNeighbors(v, et)) ||
				!reflect.DeepEqual(got.OutWeights(v, et), g.OutWeights(v, et)) {
				t.Fatalf("vertex %d type %d: out %v %v, want %v %v", v, et,
					got.OutNeighbors(v, et), got.OutWeights(v, et), g.OutNeighbors(v, et), g.OutWeights(v, et))
			}
		}
	}
}

// TestLoadFilesErrorsNamePath: a missing file and a malformed line each
// fail with an error that names the offending file.
func TestLoadFilesErrorsNamePath(t *testing.T) {
	dir := t.TempDir()
	text := func(s string) func(*os.File) error {
		return func(f *os.File) error { _, err := f.WriteString(s); return err }
	}
	vpath := writeFile(t, dir, "v.tsv", text("1\tuser\n2\titem\n"))
	epath := writeFile(t, dir, "e.tsv", text("1\t2\tclick\n"))
	badV := writeFile(t, dir, "bad-v.tsv", text("1\tuser\nx\titem\n"))
	badE := writeFile(t, dir, "bad-e.tsv", text("1\t2\tclick\tnot-a-weight\n"))
	missing := filepath.Join(dir, "missing.tsv")

	if g, err := LoadFiles(schema(), true, vpath, epath); err != nil || g.NumEdges() != 1 {
		t.Fatalf("valid files: err=%v", err)
	}
	for _, tc := range []struct{ name, vertices, edges, want string }{
		{"missing vertices", missing, epath, missing},
		{"missing edges", vpath, missing, missing},
		{"malformed vertex line", badV, epath, badV},
		{"malformed edge line", vpath, badE, badE},
	} {
		_, err := LoadFiles(schema(), true, tc.vertices, tc.edges)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
