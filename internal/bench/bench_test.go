package bench

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// These tests run each experiment at tiny scale to guarantee the harness
// stays runnable; the real measurements live in the root bench_test.go.

const tiny = 0.05

func TestTable3AndTable6(t *testing.T) {
	if s := Table3(tiny); !strings.Contains(s, "Taobao-large") {
		t.Fatalf("table 3: %s", s)
	}
	if s := Table6(tiny); !strings.Contains(s, "Amazon") {
		t.Fatalf("table 6: %s", s)
	}
}

func TestFigure7ShrinksWithWorkers(t *testing.T) {
	rows := Figure7(tiny, []int{1, 4})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	s := FormatFigure7(rows)
	if !strings.Contains(s, "workers") {
		t.Fatal(s)
	}
}

func TestFigure8Monotone(t *testing.T) {
	rows := Figure8(tiny)
	for i := 1; i < len(rows); i++ {
		if rows[i].CacheRate > rows[i-1].CacheRate+1e-9 {
			t.Fatalf("cache rate increased with threshold: %+v", rows)
		}
	}
	_ = FormatFigure8(rows)
}

// TestFigure9ImportanceWins: on the sampled path, at every cached
// fraction, the importance cache sends fewer vertices and fewer RPCs to
// remote shards than the random cache of the same size.
func TestFigure9ImportanceWins(t *testing.T) {
	rows := Figure9(tiny)
	random := map[float64]Figure9Row{}
	for _, r := range rows {
		if r.Strategy == "random" {
			random[r.CachedFrac] = r
		}
	}
	for _, r := range rows {
		if r.Strategy != "importance" {
			continue
		}
		rr := random[r.CachedFrac]
		if r.RemoteVertices >= rr.RemoteVertices || r.RemoteRPCs >= rr.RemoteRPCs {
			t.Fatalf("at %.0f%% cached, importance sent %d vertices in %d RPCs, random %d in %d",
				100*r.CachedFrac, r.RemoteVertices, r.RemoteRPCs, rr.RemoteVertices, rr.RemoteRPCs)
		}
	}
	if len(random) == 0 {
		t.Fatal("no random rows")
	}
	_ = FormatFigure9(rows)
}

func TestRandomCache(t *testing.T) {
	b := graph.NewBuilder(graph.SimpleSchema(), true)
	hub := b.AddVertex(0, nil)
	for i := 0; i < 21; i++ {
		b.AddEdge(b.AddVertex(0, nil), hub, 0, 1)
	}
	g := b.Finalize()
	c := NewRandomCache(g, 0.5, rand.New(rand.NewSource(1)))
	want := int(0.5 * float64(g.NumVertices()))
	if c.CachedVertices() != want || c.Name() != "random" {
		t.Fatalf("cached = %d (%s), want %d (random)", c.CachedVertices(), c.Name(), want)
	}
}

func TestTable4Runs(t *testing.T) {
	rows := Table4(tiny)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PerBatch <= 0 {
			t.Fatalf("non-positive time: %+v", r)
		}
	}
	_ = FormatTable4(rows)
}

// Materialization must remove work: fewer hop vectors per mini-batch,
// counted, not timed (wall-time order is scheduler noise on a shared host).
func TestTable5MaterializationWins(t *testing.T) {
	rows := Table5(tiny)
	for _, r := range rows {
		if r.VecsWith <= 0 || r.VecsWith >= r.VecsWithout {
			t.Fatalf("materialization did not reduce hop vectors on %s: %+v", r.Dataset, r)
		}
	}
	_ = FormatTable5(rows)
}

func TestTable7AHEPFaster(t *testing.T) {
	rows := Table7(tiny)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	hep, ahep := rows[0], rows[1]
	if ahep.NbrRows <= 0 || ahep.NbrRows >= hep.NbrRows {
		t.Fatalf("AHEP aggregates %.1f neighbour rows per batch, HEP %.1f: sampling should reduce work", ahep.NbrRows, hep.NbrRows)
	}
	_ = FormatTable7(rows)
}

func TestTable9Runs(t *testing.T) {
	rows := Table9(tiny)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	_ = FormatTable9(rows)
}

func TestTable11Runs(t *testing.T) {
	rows := Table11(0.3)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	_ = FormatTable11(rows)
}

func TestAblations(t *testing.T) {
	if s := AblationPartitioners(tiny, 4); !strings.Contains(s, "metis") {
		t.Fatal(s)
	}
	if s := AblationNegativeSampling(1000, 2000); !strings.Contains(s, "alias") {
		t.Fatal(s)
	}
}
