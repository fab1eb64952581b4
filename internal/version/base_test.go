package version

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestSlotIndexMatchesMap checks slotIndex.slot against a map from each
// local ID to its rank, for ID sets a shard holds (identity, hash-strided,
// a random subset), a span past 64 IDs per vertex (the search path) and IDs
// outside the span, and checks that a lookup allocates nothing.
func TestSlotIndexMatchesMap(t *testing.T) {
	const n = 1000
	strided := func(p, r int) []graph.ID {
		var ids []graph.ID
		for i := 0; i < n; i++ {
			ids = append(ids, graph.ID(i*p+r))
		}
		return ids
	}
	rnd := rand.New(rand.NewSource(1))
	var subset []graph.ID
	for v := 0; v < 20*n; v++ {
		if rnd.Intn(20) == 0 {
			subset = append(subset, graph.ID(v+500))
		}
	}
	sparse := []graph.ID{-7, 3, 64, 1000, 5000, 1 << 41}
	cases := []struct {
		name   string
		local  []graph.ID
		search bool
	}{
		{"identity", strided(1, 0), false},
		{"P=2", strided(2, 1), false},
		{"P=3", strided(3, 2), false},
		{"P=64", strided(64, 5), false},
		{"random subset", subset, false},
		{"span past 64 per vertex", sparse, true},
		{"P=65", strided(65, 0), true},
		{"one vertex", []graph.ID{42}, false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		ix := newSlotIndex(c.local)
		if (ix.words == nil) != c.search && len(c.local) > 0 {
			t.Fatalf("%s: search path = %v, want %v", c.name, ix.words == nil, c.search)
		}
		if b := 8*len(ix.words) + 4*len(ix.before); b > 12*len(c.local) {
			t.Fatalf("%s: %d index bytes for %d vertices, more than 12 each", c.name, b, len(c.local))
		}
		ref := make(map[graph.ID]int, len(c.local))
		for i, v := range c.local {
			ref[v] = i
		}
		probe := []graph.ID{-1, 1 << 40, math.MinInt64, math.MaxInt64}
		if len(c.local) > 0 {
			lo, hi := c.local[0], c.local[len(c.local)-1]
			probe = append(probe, lo-1, hi+1)
			for _, v := range c.local {
				probe = append(probe, v, v-1, v+1)
			}
		}
		for _, v := range probe {
			want, ok := ref[v]
			if !ok {
				want = -1
			}
			if got := ix.slot(v); got != want {
				t.Fatalf("%s: slot(%d) = %d, want %d", c.name, v, got, want)
			}
		}
		if len(c.local) > 0 {
			v := c.local[len(c.local)/2]
			if a := testing.AllocsPerRun(100, func() { ix.slot(v); ix.slot(v + 1) }); a != 0 {
				t.Fatalf("%s: slot allocates %v times", c.name, a)
			}
		}
	}
}

// TestAttrColumnRoundTrip checks that a sealed base serves every row bit
// for bit, nil rows as nil and empty rows as empty, in the coded form up to
// MaxCodes distinct patterns and as values past it, and that a compaction
// folding rows set by updates rebuilds the column.
func TestAttrColumnRoundTrip(t *testing.T) {
	same := func(a, b []float64) bool {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, patterns := range []int{MaxCodes, MaxCodes + 1} {
		rows := [][]float64{
			{math.Copysign(0, -1), 0}, nil, {},
			{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)},
		}
		// -0, +0, the two NaNs and 1 are five patterns; rows 4.. add one each.
		for 5+len(rows)-4 < patterns {
			rows = append(rows, []float64{float64(len(rows)), 1})
		}
		s := NewStore(1)
		ids := make([]graph.ID, len(rows))
		for i := range rows {
			ids[i] = graph.ID(5*i + 2)
			s.AddVertex(ids[i], rows[i])
		}
		s.Seal()
		wantCoded := patterns <= MaxCodes
		if coded := s.HeadView().AttrTable() != nil; coded != wantCoded {
			t.Fatalf("%d rows: coded = %v, want %v", len(rows), coded, wantCoded)
		}
		check := func(what string, v View, want [][]float64) {
			t.Helper()
			for i, x := range ids {
				got, ok := v.Attr(x)
				if !ok || !same(got, want[i]) {
					t.Fatalf("%d rows, %s: Attr(%d) = %v, want %v", len(rows), what, x, got, want[i])
				}
			}
			if _, ok := v.Attr(3); ok {
				t.Fatalf("%d rows, %s: Attr of a vertex that is not local", len(rows), what)
			}
		}
		check("sealed", s.HeadView(), rows)

		pinned := s.HeadView()
		folded := append([][]float64(nil), rows...)
		for e := 0; e < 2*DefaultRetain; e++ {
			i := (7 * e) % len(rows)
			folded[i] = []float64{float64(-e)}
			if _, _, _, _, err := s.Append(Delta{SetAttr: []AttrOp{{V: ids[i], Attr: folded[i]}}}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Compact()
		if err != nil || st.FoldedAttrs == 0 {
			t.Fatalf("compaction folded %d rows: %v", st.FoldedAttrs, err)
		}
		if s.HeadView().b.attrs == pinned.b.attrs {
			t.Fatal("a compaction that folds attribute rows kept the old column")
		}
		check("head after fold", s.HeadView(), folded)
		check("pre-fold view", pinned, rows)
	}
}

// TestSlotIndexSharedAcrossCompaction checks that a compaction keeps the
// vertex set's index and, when it folds no attribute row, the column.
func TestSlotIndexSharedAcrossCompaction(t *testing.T) {
	s := buildStore(1)
	before := s.cur
	for e := 0; e < 3; e++ {
		if _, _, _, _, err := s.Append(Delta{Add: []EdgeOp{{Src: 1, Dst: 3}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.cur == before || s.cur.slots != before.slots || s.cur.attrs != before.attrs {
		t.Fatal("compaction rebuilt the slot index or an unchanged attribute column")
	}
}
