package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// This file is the wire codec: one fixed little-endian layout per request
// and reply type. A layout is a single function over a *wire that either
// appends each field (encoding) or reads it back (decoding), so the two
// directions cannot drift apart; the method table (transport.go) holds each
// RPC's two layouts.
//
// Scalars are 8 bytes (int, int64, uint64, float64 bits), 4 (int32 and the
// int32 ID types) or 1 (bool, method index). A slice is a uint64 len+1, 0
// meaning nil, then its elements; a string is a uint64 length then its
// bytes. Decoding checks every length against the bytes that remain before
// it allocates, copies everything it keeps (nothing aliases the input), and
// rejects bools other than 0/1 and trailing bytes, so each value has exactly
// one encoding.

// wire is one pass over a value's layout: sizing (counting the bytes an
// encoding takes), encoding or decoding.
type wire struct {
	sizing, decoding bool
	n                int    // sizing: the bytes counted so far
	buf              []byte // encoding: the output so far
	in               []byte // decoding: the input not yet read
	err              error  // decoding: the first malformation
}

var le = binary.LittleEndian

// errShort is the decoding error for input that ends inside a field.
var errShort = errors.New("truncated")

// take consumes the next n input bytes, or records errShort and returns nil
// when fewer remain.
func (w *wire) take(n uint64) []byte {
	if w.err != nil {
		return nil
	}
	if n > uint64(len(w.in)) {
		w.err = errShort
		return nil
	}
	b := w.in[:n]
	w.in = w.in[n:]
	return b
}

func (w *wire) put64(v uint64) {
	if w.sizing {
		w.n += 8
	} else {
		w.buf = le.AppendUint64(w.buf, v)
	}
}

func (w *wire) put32(v uint32) {
	if w.sizing {
		w.n += 4
	} else {
		w.buf = le.AppendUint32(w.buf, v)
	}
}

func (w *wire) put8(v byte) {
	if w.sizing {
		w.n++
	} else {
		w.buf = append(w.buf, v)
	}
}

// head encodes or decodes a slice header: n and isNil describe the slice
// when encoding; when decoding they are ignored and the decoded length is
// returned once it is known that that many elements of at least size bytes
// each fit in the input. ok is false for a nil slice or a decoding error.
func (w *wire) head(n int, isNil bool, size uint64) (int, bool) {
	if !w.decoding {
		if isNil {
			w.put64(0)
			return 0, false
		}
		w.put64(uint64(n) + 1)
		return n, true
	}
	b := w.take(8)
	if b == nil || le.Uint64(b) == 0 {
		return 0, false
	}
	k := le.Uint64(b) - 1
	if k > uint64(len(w.in))/size {
		w.err = fmt.Errorf("slice of %d elements exceeds the %d bytes left", k, len(w.in))
		return 0, false
	}
	return int(k), true
}

type word interface{ ~int | ~int64 | ~uint64 }

// num is an 8-byte integer.
func num[T word](w *wire, p *T) {
	if !w.decoding {
		w.put64(uint64(*p))
	} else if b := w.take(8); b != nil {
		*p = T(le.Uint64(b))
	}
}

// nums is a slice of 8-byte integers.
func nums[T word](w *wire, p *[]T) {
	n, ok := w.head(len(*p), *p == nil, 8)
	switch {
	case !ok:
	case w.sizing:
		w.n += 8 * n
	case !w.decoding:
		for _, v := range *p {
			w.buf = le.AppendUint64(w.buf, uint64(v))
		}
	default:
		s, b := make([]T, n), w.take(8*uint64(n))
		for i := range s {
			s[i] = T(le.Uint64(b[8*i:]))
		}
		*p = s
	}
}

// i32 is a 4-byte integer.
func i32[T ~int32](w *wire, p *T) {
	if !w.decoding {
		w.put32(uint32(*p))
	} else if b := w.take(4); b != nil {
		*p = T(le.Uint32(b))
	}
}

// f64 is a float64 by its IEEE bits.
func (w *wire) f64(p *float64) {
	if !w.decoding {
		w.put64(math.Float64bits(*p))
	} else if b := w.take(8); b != nil {
		*p = math.Float64frombits(le.Uint64(b))
	}
}

// f64s is a slice of float64s.
func f64s(w *wire, p *[]float64) {
	n, ok := w.head(len(*p), *p == nil, 8)
	switch {
	case !ok:
	case w.sizing:
		w.n += 8 * n
	case !w.decoding:
		for _, v := range *p {
			w.buf = le.AppendUint64(w.buf, math.Float64bits(v))
		}
	default:
		s, b := make([]float64, n), w.take(8*uint64(n))
		for i := range s {
			s[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		*p = s
	}
}

// boolean is one byte, 0 or 1.
func (w *wire) boolean(p *bool) {
	if !w.decoding {
		b := byte(0)
		if *p {
			b = 1
		}
		w.put8(b)
	} else if b := w.take(1); b != nil {
		if b[0] > 1 {
			w.err = fmt.Errorf("bool byte %d", b[0])
		}
		*p = b[0] == 1
	}
}

// u8 is one byte.
func (w *wire) u8(p *uint8) {
	if !w.decoding {
		w.put8(*p)
	} else if b := w.take(1); b != nil {
		*p = b[0]
	}
}

// str is a string.
func (w *wire) str(p *string) {
	switch {
	case w.sizing:
		w.n += 8 + len(*p)
	case !w.decoding:
		w.buf = le.AppendUint64(w.buf, uint64(len(*p)))
		w.buf = append(w.buf, *p...)
	default:
		if n := w.take(8); n != nil {
			if b := w.take(le.Uint64(n)); b != nil {
				*p = string(b)
			}
		}
	}
}

// list is a slice whose elements have layout elem and encode to at least
// size bytes each. Attribute and adjacency rows are lists of slices, so each
// decoded row is its own allocation: caches admit rows without copying,
// and a row must not pin the rest of its reply.
func list[T any](w *wire, p *[]T, size uint64, elem func(*wire, *T)) {
	n, ok := w.head(len(*p), *p == nil, size)
	if !ok {
		return
	}
	s := *p
	if w.decoding {
		s = make([]T, n)
		*p = s
	}
	for i := range s {
		elem(w, &s[i])
	}
}

func strs(w *wire, p *[]string) { list(w, p, 8, (*wire).str) }

func idRows(w *wire, p *[][]graph.ID) { list(w, p, 8, nums[graph.ID]) }

func f64Rows(w *wire, p *[][]float64) { list(w, p, 8, f64s) }

// encode appends v's wire form under layout to b, growing b once.
func encode[T any](b []byte, v *T, layout func(*wire, *T)) []byte {
	w := wire{sizing: true}
	layout(&w, v)
	w = wire{buf: slices.Grow(b, w.n)}
	layout(&w, v)
	return w.buf
}

// decode reads one T under layout from b, which it must consume exactly.
func decode[T any](b []byte, layout func(*wire, *T)) (T, error) {
	var v T
	w := wire{decoding: true, in: b}
	layout(&w, &v)
	if w.err == nil && len(w.in) > 0 {
		w.err = fmt.Errorf("%d trailing bytes", len(w.in))
	}
	return v, w.err
}

// ---------------------------------------------------------------------------
// Layouts, one per request and reply type, fields in declaration order.

func noFields[T any](*wire, *T) {}

func sampleRequestWire(w *wire, r *SampleRequest) {
	nums(w, &r.Vertices)
	i32(w, &r.EdgeType)
	num(w, &r.Width)
	w.boolean(&r.WantLists)
	num(w, &r.Seed)
	num(w, &r.Pin)
	w.boolean(&r.Pinned)
}

func sampleReplyWire(w *wire, r *SampleReply) {
	nums(w, &r.Samples)
	idRows(w, &r.Lists)
	nums(w, &r.Since)
	num(w, &r.Epoch)
	num(w, &r.Head)
	num(w, &r.AttrHead)
}

func edgesRequestWire(w *wire, r *EdgesRequest) {
	i32(w, &r.EdgeType)
	num(w, &r.Count)
	num(w, &r.Seed)
	num(w, &r.Pin)
	w.boolean(&r.Pinned)
}

func edgesReplyWire(w *wire, r *EdgesReply) {
	nums(w, &r.Src)
	nums(w, &r.Dst)
	f64s(w, &r.Weight)
	num(w, &r.Epoch)
	num(w, &r.Head)
	num(w, &r.AttrHead)
}

func negPoolRequestWire(w *wire, r *NegPoolRequest) { i32(w, &r.EdgeType) }

func negPoolReplyWire(w *wire, r *NegPoolReply) {
	nums(w, &r.Vertices)
	nums(w, &r.Counts)
}

func statsReplyWire(w *wire, r *StatsReply) {
	num(w, &r.NumVertices)
	nums(w, &r.EdgesByType)
	num(w, &r.Head)
	num(w, &r.AttrHead)
}

func attrsRequestWire(w *wire, r *AttrsRequest) {
	nums(w, &r.Vertices)
	num(w, &r.Pin)
	w.boolean(&r.Pinned)
}

func attrsReplyWire(w *wire, r *AttrsReply) {
	f64Rows(w, &r.Attrs)
	nums(w, &r.Since)
	num(w, &r.Epoch)
	num(w, &r.AttrEpoch)
	num(w, &r.Head)
	num(w, &r.AttrHead)
}

func bootstrapReplyWire(w *wire, r *BootstrapReply) {
	num(w, &r.Partitions)
	nums(w, &r.Assign)
	strs(w, &r.VertexTypes)
	strs(w, &r.EdgeTypes)
}

func rawEdgeWire(w *wire, e *RawEdge) {
	num(w, &e.Src)
	num(w, &e.Dst)
	i32(w, &e.Type)
	w.f64(&e.Weight)
}

func attrUpdateWire(w *wire, a *AttrUpdate) {
	num(w, &a.V)
	f64s(w, &a.Attr)
}

func updateRequestWire(w *wire, r *UpdateRequest) {
	list(w, &r.Add, 28, rawEdgeWire)
	list(w, &r.Remove, 28, rawEdgeWire)
	list(w, &r.SetAttr, 16, attrUpdateWire)
	num(w, &r.Token)
}

func updateReplyWire(w *wire, r *UpdateReply) {
	num(w, &r.Added)
	num(w, &r.Removed)
	num(w, &r.AttrsSet)
	num(w, &r.Epoch)
}

func leaseRequestWire(w *wire, r *LeaseRequest) { num(w, &r.Token) }

func leaseReplyWire(w *wire, r *LeaseReply) {
	num(w, &r.Epoch)
	num(w, &r.Head)
	num(w, &r.AttrHead)
	nums(w, &r.EdgesByType)
}

func releaseRequestWire(w *wire, r *ReleaseRequest) {
	num(w, &r.Epoch)
	num(w, &r.Token)
}

func compactReplyWire(w *wire, r *CompactReply) {
	num(w, &r.BaseEpoch)
	num(w, &r.Folded)
	num(w, &r.Pruned)
	num(w, &r.Head)
}
