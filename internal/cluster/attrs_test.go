package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/version"
)

// attrBits is r with every float replaced by its bit pattern, so that
// reflect.DeepEqual tells -0 from +0 and compares NaN payloads.
func attrBits(r AttrRows) any {
	bits := func(xs []float64) []uint64 {
		if xs == nil {
			return nil
		}
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	var raw [][]uint64
	if r.Raw != nil {
		raw = make([][]uint64, len(r.Raw))
		for i, row := range r.Raw {
			raw[i] = bits(row)
		}
	}
	return struct {
		Table []uint64
		Codes [][]byte
		Raw   [][]uint64
	}{bits(r.Table), r.Codes, raw}
}

// TestServeAttrsMatchesPackRows checks ServeAttrs' rows against packRows of
// the view's own rows (View.Attr), for bases stored coded and as values,
// rows set by updates before and after a compaction folds them, replies
// pushed past maxCodes patterns, signed zeros, NaN payloads, and nil and
// empty rows.
func TestServeAttrsMatchesPackRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	// Vertices are every third ID, as a hash shard holds them.
	id := func(i int) graph.ID { return graph.ID(3*i + 1) }
	build := func(rows [][]float64) *Server {
		s := NewServer(0, 1)
		for i, row := range rows {
			s.AddVertex(id(i), row)
		}
		s.Seal()
		return s
	}
	binary := func(n int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, 3+i%3)
			for j := range rows[i] {
				rows[i][j] = float64((i >> j) & 1)
			}
		}
		return rows
	}
	wide := func(n, base int) []float64 {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(base+j) + 0.25
		}
		return row
	}
	set := func(s *Server, ops ...version.AttrOp) {
		t.Helper()
		if _, _, _, _, err := s.Store().Append(version.Delta{SetAttr: ops}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, s *Server, vs []graph.ID, pin uint64, pinned, coded, raw bool) {
		t.Helper()
		view := s.Store().HeadView()
		if pinned {
			var err error
			if view, err = s.Store().At(pin); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if (view.AttrTable() != nil) != coded {
			t.Fatalf("%s: base coded = %v, want %v", name, view.AttrTable() != nil, coded)
		}
		rows := make([][]float64, len(vs))
		for i, v := range vs {
			var ok bool
			if rows[i], ok = view.Attr(v); !ok {
				t.Fatalf("%s: vertex %d not local", name, v)
			}
		}
		want := packRows(rows)
		var reply AttrsReply
		if err := s.ServeAttrs(AttrsRequest{Vertices: vs, Pin: pin, Pinned: pinned}, &reply); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (reply.Attrs.Raw != nil) != raw {
			t.Fatalf("%s: raw reply = %v, want %v", name, reply.Attrs.Raw != nil, raw)
		}
		if !reflect.DeepEqual(attrBits(reply.Attrs), attrBits(want)) {
			t.Fatalf("%s: ServeAttrs rows\n%+v\npackRows\n%+v", name, reply.Attrs, want)
		}
	}
	ids := func(is ...int) []graph.ID {
		vs := make([]graph.ID, len(is))
		for k, i := range is {
			vs[k] = id(i)
		}
		return vs
	}

	coded := build(binary(40))
	// Rows 5 and 0 meet the base's patterns in the other order, row 0 in
	// the base's.
	check("coded base", coded, ids(5, 0, 17, 5, 39, 2), 0, false, true, false)
	check("coded base in base order", coded, ids(0, 5, 17, 5, 39, 2), 0, false, true, false)
	check("empty request", coded, ids(), 0, false, true, false)

	floatRows := make([][]float64, 30)
	for i := range floatRows {
		floatRows[i] = wide(10, 10*i) // 300 patterns
	}
	floatRows[4] = []float64{0, 1}
	check("float base", build(floatRows), ids(29, 4, 0, 3, 3), 0, false, false, false)

	// Rows set by updates come first in the reply, so the base patterns
	// they share (0 and 1) must take their codes, not new ones.
	set(coded, version.AttrOp{V: id(7), Attr: []float64{1, 7.5, 0}}, version.AttrOp{V: id(9), Attr: []float64{2.5}})
	check("overlay and base", coded, ids(7, 3, 9, 12, 7), 0, false, true, false)
	set(coded, version.AttrOp{V: id(11), Attr: wide(300, 0)})
	check("overlay past maxCodes", coded, ids(3, 11, 7, 6), 0, false, true, true)
	check("overlay within maxCodes", coded, ids(3, 7, 6), 0, false, true, false)

	special := build([][]float64{
		{negZero, 0, nanA}, {nanB, 0}, {0, negZero}, nil, {}, {nanA, nanB, 1}, nil,
	})
	check("signed zeros and NaNs", special, ids(2, 0, 1, 5, 3, 4, 6), 0, false, true, false)
	set(special, version.AttrOp{V: id(3), Attr: []float64{nanB, negZero, 4}}, version.AttrOp{V: id(0), Attr: nil})
	check("special overlay", special, ids(3, 0, 1, 2, 4, 5), 0, false, true, false)

	// Fold the rows set above into a new base, keeping one pre-fold epoch
	// pinned; the later rows of 12..27 stay in overlays.
	pin := coded.Store().Head()
	if err := coded.Store().Lease(pin); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2*version.DefaultRetain; e++ {
		set(coded, version.AttrOp{V: id(12 + e), Attr: []float64{float64(e % 3)}})
	}
	st, err := coded.Store().Compact()
	if err != nil || st.FoldedAttrs == 0 {
		t.Fatalf("compaction folded %d rows: %v", st.FoldedAttrs, err)
	}
	all := make([]graph.ID, 40)
	for i := range all {
		all[i] = id(39 - i)
	}
	check("pinned pre-fold view", coded, all, pin, true, true, true)
	check("pinned pre-fold view, within maxCodes", coded, ids(7, 9, 0, 1), pin, true, true, false)
	// The 300-pattern row is in the base now, which stores values.
	check("head after fold", coded, all, 0, false, false, true)
	check("head after fold, overlay", coded, ids(27, 1, 26, 7, 14), 0, false, false, false)
}

// TestServeAttrsRejectsNonLocal checks that an Attrs request naming a
// vertex the shard does not own fails with that vertex in the error, both
// when it comes first and after a reply has gone raw.
func TestServeAttrsRejectsNonLocal(t *testing.T) {
	s := NewServer(0, 1)
	s.AddVertex(0, []float64{1})
	row := make([]float64, 300)
	for j := range row {
		row[j] = float64(j) + 0.5
	}
	s.AddVertex(2, row)
	s.Seal()
	for _, vs := range [][]graph.ID{{1}, {0, 2, 4}, {2, 0, 1 << 40}} {
		err := s.ServeAttrs(AttrsRequest{Vertices: vs}, &AttrsReply{})
		want := fmt.Sprintf("cluster: server 0 does not own vertex %d", vs[len(vs)-1])
		if err == nil || err.Error() != want {
			t.Fatalf("Attrs of %v: %v, want %q", vs, err, want)
		}
	}
}
