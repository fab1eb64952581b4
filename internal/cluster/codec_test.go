package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// TestWireRoundTrip: every table row's request and reply decode to a value
// deeply equal to the one encoded, over generated values that set every
// field but RawEdge.Weight, which is not sent: the zero value, every slice
// empty but not nil, and every slice holding a zero or nil element, an
// empty one and one of extreme values. A field a layout forgets fails
// here. Every proper prefix of an encoding and the encoding plus a byte
// must fail to decode. The row's request and reply types must also be
// those of the Transport method of its name.
func TestWireRoundTrip(t *testing.T) {
	tr := reflect.TypeOf((*Transport)(nil)).Elem()
	for m := range numMethods {
		spec := &methods[m]
		tm, ok := tr.MethodByName(spec.name)
		if !ok {
			t.Fatalf("%v: Transport has no method %q", m, spec.name)
		}
		reqType, replyType := tm.Type.In(1), tm.Type.In(2)
		if got := reflect.TypeOf(spec.newReply()); got != replyType {
			t.Errorf("%v: the row's reply is %v, Transport.%s's %v", m, got, spec.name, replyType)
		}
		for variant := range 3 {
			req := reflect.New(reqType).Elem()
			fillWire(req, variant)
			reply := reflect.New(replyType.Elem())
			fillWire(reply.Elem(), variant)
			checkRoundTrip(t, m, "request", req.Interface(), spec.putReq, spec.getReq)
			checkRoundTrip(t, m, "reply", reply.Interface(), spec.putReply, spec.getReply)
		}
	}
	for _, c := range wireBoundaries() {
		spec := &methods[c.m]
		put, get, what := spec.putReq, spec.getReq, "request "+c.name
		if c.reply {
			put, get, what = spec.putReply, spec.getReply, "reply "+c.name
		}
		if n := len(put(nil, c.v)); n != c.size {
			t.Errorf("%v %s: %d bytes, want %d", c.m, what, n, c.size)
		}
		checkRoundTrip(t, c.m, what, c.v, put, get)
	}
}

// wireCase is one value on a boundary of the narrow forms, with the size
// of its encoding, which shows the form it took.
type wireCase struct {
	name  string
	m     Method
	reply bool
	v     any // a request value or a reply pointer
	size  int
}

// wireBoundaries lists values on each boundary of the narrow forms: the
// largest coded attribute table and one pattern past it, a table holding
// -0 and +0 and two NaN payloads, integer columns whose largest value is
// 2^32-1 and 2^32, and a negative ID.
func wireBoundaries() []wireCase {
	distinct := func(n int) [][]float64 {
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(i) / 3
		}
		return [][]float64{row, row[:1]}
	}
	attrs := func(rows [][]float64) *AttrsReply {
		return &AttrsReply{Attrs: packRows(rows)}
	}
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	const replyScalars = 2 * 8
	return []wireCase{
		// Table 8+8*256, code rows 8+(8+256)+(8+1), no raw rows 8.
		{"256 patterns, coded", MAttrs, true, attrs(distinct(256)), 2056 + 281 + 8 + replyScalars},
		// No table 8, no codes 8, raw rows 8+(8+8*257)+(8+8).
		{"257 patterns, raw", MAttrs, true, attrs(distinct(257)), 16 + 2088 + replyScalars},
		{"signed zeros and NaN payloads", MAttrs, true, attrs([][]float64{{0, math.Copysign(0, -1), nan1, nan2, 0, nan2}}),
			40 + 8 + 14 + 8 + replyScalars},
		{"largest ID 2^32-1", MAttrs, false, AttrsRequest{Vertices: []graph.ID{0, 1<<32 - 1}}, 8 + 1 + 2*4 + 9},
		{"largest ID 2^32", MAttrs, false, AttrsRequest{Vertices: []graph.ID{0, 1 << 32}}, 8 + 1 + 2*8 + 9},
		{"negative ID", MAttrs, false, AttrsRequest{Vertices: []graph.ID{3, -1}}, 8 + 1 + 2*8 + 9},
		{"stamps to 2^32-1", MSampleNeighbors, true, &SampleReply{Samples: []graph.ID{7}, Since: []uint64{1<<32 - 1}},
			(8 + 1 + 4) + 8 + (8 + 1 + 4) + 2*8},
		{"stamps to 2^32", MSampleNeighbors, true, &SampleReply{Samples: []graph.ID{7}, Since: []uint64{1 << 32}},
			(8 + 1 + 4) + 8 + (8 + 1 + 8) + 2*8},
	}
}

func checkRoundTrip(t *testing.T, m Method, what string, v any, put func([]byte, any) []byte, get func([]byte) (any, error)) {
	t.Helper()
	b := put(nil, v)
	got, err := get(b)
	if err != nil {
		t.Fatalf("%v %s %+v: %v", m, what, v, err)
	}
	// NaN is never DeepEqual to itself; its bits must re-encode exactly.
	if !reflect.DeepEqual(got, v) && !(hasNaN(reflect.ValueOf(v)) && bytes.Equal(put(nil, got), b)) {
		t.Errorf("%v %s: sent %#v, decoded %#v", m, what, v, got)
	}
	for k := range len(b) {
		if _, err := get(b[:k]); err == nil {
			t.Errorf("%v %s: the first %d of %d bytes decoded", m, what, k, len(b))
		}
	}
	if _, err := get(append(b, 0)); err == nil {
		t.Errorf("%v %s: a trailing byte decoded", m, what)
	}
}

// TestNonCanonicalFormsRejected: decoding rejects every form that the
// content it carries would not have picked, so no value has two
// encodings: attribute codes out of range or out of first-appearance
// order, a duplicate or unused table entry, a table past maxCodes, raw
// rows that would fit a table, rows in both forms or half of one, and an
// integer column whose width byte disagrees with its values.
func TestNonCanonicalFormsRejected(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	wide := make([]float64, maxCodes+1)
	narrow := make([][]float64, 1)
	for i := range wide {
		wide[i] = float64(i)
	}
	narrow[0] = wide[:maxCodes]
	allCodes := make([]byte, maxCodes)
	for i := range allCodes {
		allCodes[i] = byte(i)
	}
	attrs := func(r AttrRows) []byte {
		return methods[MAttrs].putReply(nil, &AttrsReply{Attrs: r})
	}
	// An Attrs request for [1, 2^32]: header, width byte 8 at [8], then
	// 2^32 with its low word at [17:21] and high word at [21:25].
	ids := func(patch func([]byte)) []byte {
		b := methods[MAttrs].putReq(nil, AttrsRequest{Vertices: []graph.ID{1, 1 << 32}})
		patch(b)
		return b
	}
	for _, c := range []struct {
		name  string
		reply bool
		data  []byte
	}{
		{"code out of range", true, attrs(AttrRows{Table: []float64{1}, Codes: [][]byte{{0, 1}}})},
		{"duplicate table entry", true, attrs(AttrRows{Table: []float64{1, 1}, Codes: [][]byte{{0, 1}}})},
		{"duplicate NaN payload", true, attrs(AttrRows{Table: []float64{nan, nan}, Codes: [][]byte{{0, 1}}})},
		{"table past maxCodes", true, attrs(AttrRows{Table: wide, Codes: [][]byte{allCodes}})},
		{"codes out of first-appearance order", true, attrs(AttrRows{Table: []float64{1, 2}, Codes: [][]byte{{1, 0}}})},
		{"unused table entry", true, attrs(AttrRows{Table: []float64{1, 2}, Codes: [][]byte{{0}}})},
		{"raw rows with maxCodes patterns", true, attrs(AttrRows{Raw: narrow})},
		{"both forms", true, attrs(AttrRows{Table: []float64{1}, Codes: [][]byte{{0}}, Raw: [][]float64{wide}})},
		{"table without codes", true, attrs(AttrRows{Table: []float64{1}})},
		{"codes without table", true, attrs(AttrRows{Codes: [][]byte{{}}})},
		{"8-byte column of 4-byte values", false, ids(func(b []byte) { b[21] = 0 })},
		{"width byte 5", false, ids(func(b []byte) { b[8] = 5 })},
	} {
		get := methods[MAttrs].getReq
		if c.reply {
			get = methods[MAttrs].getReply
		}
		if v, err := get(c.data); err == nil {
			t.Errorf("%s: decoded as %+v", c.name, v)
		}
	}
	if v, err := methods[MAttrs].getReq(ids(func([]byte) {})); err != nil {
		t.Fatalf("the unpatched column: %v", err)
	} else if vs := v.(AttrsRequest).Vertices; len(vs) != 2 || vs[1] != 1<<32 {
		t.Fatalf("the unpatched column decoded as %v", vs)
	}
}

// fillWire sets every field of v for the given variant: 0 leaves the zero
// value (nil slices); 1 sets maximal scalars and empty, non-nil slices; 2
// sets minimal scalars and three-element slices whose elements are filled
// as variants 0, 1 and 2 (a nil row, an empty row, a full row).
func fillWire(v reflect.Value, variant int) {
	if variant == 0 {
		return
	}
	if rows, ok := v.Addr().Interface().(*AttrRows); ok {
		// Attribute rows take the form packRows picks for filled rows.
		var raw [][]float64
		fillWire(reflect.ValueOf(&raw).Elem(), variant)
		*rows = packRows(raw)
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type() == reflect.TypeFor[RawEdge]() && v.Type().Field(i).Name == "Weight" {
				continue // ignored by shards and not sent
			}
			fillWire(v.Field(i), variant)
		}
	case reflect.Slice:
		n := 0
		if variant == 2 {
			n = 3
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := range n {
			fillWire(s.Index(i), i)
		}
		v.Set(s)
	case reflect.Int, reflect.Int64:
		v.SetInt(map[int]int64{1: math.MaxInt64, 2: math.MinInt64}[variant])
	case reflect.Int32:
		v.SetInt(map[int]int64{1: math.MaxInt32, 2: math.MinInt32}[variant])
	case reflect.Uint64:
		v.SetUint(map[int]uint64{1: math.MaxUint64, 2: 1 << 63}[variant])
	case reflect.Float64:
		v.SetFloat(map[int]float64{1: math.Inf(-1), 2: math.SmallestNonzeroFloat64}[variant])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(map[int]string{1: "é\x00", 2: "edge"}[variant])
	default:
		panic("fillWire: no case for " + v.Type().String())
	}
}

// FuzzWireDecode feeds raw bytes to one table row's request (reply false)
// or reply decoder. Hostile input must fail with an error, never panic, and
// never allocate more than 4 bytes per input byte (a decoded slice header
// takes 24 bytes, its shortest encoding 8) plus a constant. Whatever decodes
// must re-encode to the same bytes, since each value has one encoding, and
// decode again to a deeply equal value. The corpus is seeded with the
// requests of TestMethodTableAgreement and a local cluster's replies (its
// Attrs reply coded), a list-carrying SampleNeighbors pair and the
// boundary values of TestWireRoundTrip.
func FuzzWireDecode(f *testing.F) {
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	var owned []graph.ID
	for v, p := range a.Of {
		if p == 0 {
			owned = append(owned, graph.ID(v))
		}
	}
	local := NewLocalTransport(FromGraph(g, a))
	var leased uint64
	for m := range numMethods {
		req := agreementRequest(m, owned[:4], leased)
		reply := methods[m].newReply()
		if err := local.Call(context.Background(), 0, m, req, reply); err != nil {
			f.Fatalf("%v: %v", m, err)
		}
		if r, ok := reply.(*LeaseReply); ok {
			leased = r.Epoch
		}
		f.Add(uint8(m), false, methods[m].putReq(nil, req))
		f.Add(uint8(m), true, methods[m].putReply(nil, reply))
	}
	// A draw hop whose cache admits lists: the reply carries full rows
	// beside the draws, each with its install stamp.
	lists := SampleRequest{Vertices: owned[:4], EdgeType: 0, Width: 3, WantLists: true, Seed: 7}
	var listsReply SampleReply
	if err := local.Call(context.Background(), 0, MSampleNeighbors, lists, &listsReply); err != nil || len(listsReply.Lists) == 0 {
		f.Fatalf("list-carrying SampleNeighbors: %d lists, %v", len(listsReply.Lists), err)
	}
	f.Add(uint8(MSampleNeighbors), false, methods[MSampleNeighbors].putReq(nil, lists))
	f.Add(uint8(MSampleNeighbors), true, methods[MSampleNeighbors].putReply(nil, &listsReply))
	for _, c := range wireBoundaries() {
		if c.reply {
			f.Add(uint8(c.m), true, methods[c.m].putReply(nil, c.v))
		} else {
			f.Add(uint8(c.m), false, methods[c.m].putReq(nil, c.v))
		}
	}
	f.Fuzz(func(t *testing.T, m uint8, reply bool, data []byte) {
		if m >= uint8(numMethods) {
			return
		}
		put, get := methods[m].putReq, methods[m].getReq
		if reply {
			put, get = methods[m].putReply, methods[m].getReply
		}
		// The least of three measurements, as the fuzzing engine's own
		// goroutines allocate now and then.
		var v any
		var err error
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err = get(data)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4*uint64(len(data))+1024 {
			t.Fatalf("%v: decoding %d bytes allocated %d", Method(m), len(data), least)
		}
		if err != nil {
			return
		}
		again := put(nil, v)
		if !bytes.Equal(again, data) {
			t.Fatalf("%v: %x decoded to %#v, which encodes to %x", Method(m), data, v, again)
		}
		v2, err := get(again)
		if err != nil {
			t.Fatalf("%v: re-encoding does not decode: %v", Method(m), err)
		}
		if !reflect.DeepEqual(v2, v) && !hasNaN(reflect.ValueOf(v)) {
			t.Fatalf("%v: %#v decoded again as %#v", Method(m), v, v2)
		}
	})
}

// hasNaN reports whether v holds a NaN, which reflect.DeepEqual never
// finds equal to itself; for such values the byte-exact re-encoding is the
// check.
func hasNaN(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return math.IsNaN(v.Float())
	case reflect.Pointer, reflect.Interface:
		return !v.IsNil() && hasNaN(v.Elem())
	case reflect.Slice:
		for i := range v.Len() {
			if hasNaN(v.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if hasNaN(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

// TestMalformedFrames: on either end, a body that does not decode fails only
// its own call and the connection goes on; a frame that breaks the format
// closes the connection. The client then fails its pending call with an
// error wrapping both ErrUnreachable and the malformed-frame cause, which
// IsTransient retries.
func TestMalformedFrames(t *testing.T) {
	garbage := func(b []byte, _ any) []byte { return append(b, 1, 2, 3) }
	roundTrip := func(conn net.Conn, h frameHeader, put func([]byte, any) []byte, v any) (frameHeader, []byte, error) {
		t.Helper()
		frame, err := putFrame(nil, h, put, v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if frame, err = readFrame(conn, nil); err != nil {
			return frameHeader{}, nil, err
		}
		return parseFrame(frame)
	}

	// The server's end.
	g := churnTestGraph(60)
	a, err := (partition.HashPartitioner{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ServeRPC(FromGraph(g, a)[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	conn, err := net.Dial("tcp", rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h, _, err := roundTrip(conn, frameHeader{seq: 1, method: uint8(MAttrs)}, garbage, true)
	if err != nil || h.seq != 1 || !strings.Contains(h.err, "malformed Attrs request") {
		t.Fatalf("garbage Attrs body: reply %+v, %v", h, err)
	}
	h, body, err := roundTrip(conn, frameHeader{seq: 2, method: uint8(MStats)}, methods[MStats].putReq, StatsRequest{})
	if err != nil || h.seq != 2 || h.err != "" {
		t.Fatalf("Stats after a garbage body: reply %+v, %v", h, err)
	}
	if r, err := methods[MStats].getReply(body); err != nil || r.(*StatsReply).NumVertices != 60 {
		t.Fatalf("Stats after a garbage body: %+v, %v", r, err)
	}
	if h, _, err = roundTrip(conn, frameHeader{seq: 3, method: 200}, nil, nil); err == nil {
		t.Fatalf("method index 200: reply %+v, want a closed connection", h)
	}

	// The client's end, against a peer that answers its first call with a
	// garbage body, its second properly and its third with a bad header.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; ; i++ {
			frame, err := readFrame(conn, nil)
			if err != nil {
				return
			}
			h, _, _ := parseFrame(frame)
			switch i {
			case 0:
				frame, _ = putFrame(nil, h, garbage, true)
			case 1:
				frame, _ = putFrame(nil, h, methods[MStats].putReply, &StatsReply{NumVertices: 7})
			default:
				h.method = 200
				frame, _ = putFrame(nil, h, nil, nil)
			}
			conn.Write(frame)
		}
	}()
	tr, err := DialRPC([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var reply StatsReply
	if err := tr.Stats(0, StatsRequest{}, &reply); err == nil || IsTransient(err) || !strings.Contains(err.Error(), "malformed Stats reply") {
		t.Fatalf("garbage reply body: %v", err)
	}
	if err := tr.Stats(0, StatsRequest{}, &reply); err != nil || reply.NumVertices != 7 {
		t.Fatalf("call after a garbage body: %+v, %v", reply, err)
	}
	if err := tr.Stats(0, StatsRequest{}, &reply); !errors.Is(err, ErrUnreachable) || !errors.Is(err, errMalformed) || !IsTransient(err) {
		t.Fatalf("bad reply header: %v, want a transient error wrapping ErrUnreachable and errMalformed", err)
	}
}
