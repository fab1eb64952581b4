package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/version"
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
// bytes. Two slice kinds have a second, narrower form, picked from their
// content (the form is a function of the value, never an option):
//
//   - an integer column (nums: IDs, install stamps, counts) puts a width
//     byte after its header, 4 when every element's uint64 bits fit in a
//     uint32 and 8 otherwise, and then its elements at that width;
//   - a batch of attribute rows (AttrRows, built by packRows, or by
//     packView from a shard's coded attribute column) carries a table of
//     its distinct float64 bit patterns and a one-byte code per value when
//     at most maxCodes patterns occur, and raw rows otherwise.
//
// Decoding checks every length against the bytes that remain before it
// allocates, copies everything it keeps (nothing aliases the input), and
// rejects bools other than 0/1, trailing bytes and any form its content
// would not have picked, so each value has exactly one encoding.

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

// numWidth is the one rule for an integer column's element width: 4 bytes
// when every element's bits fit in a uint32, else 8.
func numWidth[T word](s []T) int {
	for _, v := range s {
		if uint64(v) > math.MaxUint32 {
			return 8
		}
	}
	return 4
}

// nums is an integer column: its header, its width byte (numWidth) and its
// elements at that width.
func nums[T word](w *wire, p *[]T) {
	n, ok := w.head(len(*p), *p == nil, 4)
	switch {
	case !ok:
	case w.sizing:
		w.n += 1 + numWidth(*p)*n
	case !w.decoding:
		width := numWidth(*p)
		w.buf = append(w.buf, byte(width))
		if width == 4 {
			for _, v := range *p {
				w.buf = le.AppendUint32(w.buf, uint32(v))
			}
		} else {
			for _, v := range *p {
				w.buf = le.AppendUint64(w.buf, uint64(v))
			}
		}
	default:
		wb := w.take(1)
		if wb == nil {
			return
		}
		width := int(wb[0])
		if width != 4 && width != 8 {
			w.err = fmt.Errorf("integer column width %d", width)
			return
		}
		b := w.take(uint64(width) * uint64(n))
		if b == nil {
			return
		}
		s := make([]T, n)
		if width == 4 {
			for i := range s {
				s[i] = T(le.Uint32(b[4*i:]))
			}
		} else {
			for i := range s {
				s[i] = T(le.Uint64(b[8*i:]))
			}
		}
		if numWidth(s) != width {
			w.err = fmt.Errorf("%d-byte integer column whose values fit in %d bytes", width, numWidth(s))
			return
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
// size bytes each. Attribute, code and adjacency rows are lists of slices,
// so each decoded row is its own allocation: caches admit rows without
// copying, and a row must not pin the rest of its reply.
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

// f64Rows is the raw form of attribute rows: 8 bytes per value.
func f64Rows(w *wire, p *[][]float64) { list(w, p, 8, f64s) }

// byteRow is one code row of AttrRows: a slice of bytes.
func byteRow(w *wire, p *[]byte) {
	n, ok := w.head(len(*p), *p == nil, 1)
	switch {
	case !ok:
	case w.sizing:
		w.n += n
	case !w.decoding:
		w.buf = append(w.buf, *p...)
	default:
		if b := w.take(uint64(n)); b != nil {
			*p = append(make([]byte, 0, n), b...)
		}
	}
}

// attrRowsWire is AttrRows' layout. Decoding rejects a form packRows would
// not have picked for the rows it holds.
func attrRowsWire(w *wire, r *AttrRows) {
	f64s(w, &r.Table)
	list(w, &r.Codes, 8, byteRow)
	f64Rows(w, &r.Raw)
	if w.decoding && w.err == nil {
		w.err = r.canonical()
	}
}

// maxCodes is the largest table a one-byte code can index.
const maxCodes = version.MaxCodes

// remapper turns rows of a base's codes into one reply's codes. A base
// code's first use in the reply gets its reply code from the reply's
// CodeSet, so that it takes the code of an equal pattern another row
// brought in first; later uses look it up in to. Once every base code has
// a reply code and each kept its number (as when a reply's first rows meet
// the base's few patterns in the base's order), rows are copied.
type remapper struct {
	base []float64
	to   [maxCodes]uint16 // reply code+1 of each base code; 0 until its first use
	left int              // base codes without a reply code
	same bool             // every mapped base code kept its number
}

func newRemapper(base []float64) remapper { return remapper{base: base, left: len(base), same: true} }

// codes writes to cs the reply codes of rc, a row of base codes, and
// reports false once the reply holds more than maxCodes patterns.
func (m *remapper) codes(set *version.CodeSet, rc, cs []byte) bool {
	if m.left == 0 && m.same {
		copy(cs, rc)
		return true
	}
	for j := 0; ; j++ {
		if j += remapped(rc[j:], cs[j:], &m.to); j == len(rc) {
			return true
		}
		c, _ := set.Code(math.Float64bits(m.base[rc[j]]))
		if c == 0 {
			return false
		}
		m.to[rc[j]] = c
		m.left--
		m.same = m.same && c-1 == uint16(rc[j])
		cs[j] = byte(c - 1)
	}
}

// remapped writes the reply codes of rc's base codes to cs while they have
// one, and returns how many it wrote. It is kept out of line, and makes no
// calls, so its loop stays in registers.
//
//go:noinline
func remapped(rc, cs []byte, to *[maxCodes]uint16) int {
	cs = cs[:len(rc)]
	for j, c := range rc {
		r := to[c]
		if r == 0 {
			return j
		}
		cs[j] = byte(r - 1)
	}
	return len(rc)
}

// packRows picks the wire form of rows: coded when they hold at most
// maxCodes distinct bit patterns, raw otherwise; nil rows are the zero
// AttrRows. The code rows share one buffer (a client expands them and
// keeps none); a nil row stays nil.
func packRows(rows [][]float64) AttrRows {
	if rows == nil {
		return AttrRows{}
	}
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	set := version.NewCodeSet()
	defer set.Release()
	buf := make([]byte, total)
	codes := make([][]byte, len(rows))
	k := 0
	for i, row := range rows {
		if row == nil {
			continue
		}
		cs := buf[k : k+len(row) : k+len(row)]
		k += len(row)
		if !set.Codes(row, cs) {
			return AttrRows{Raw: rows}
		}
		codes[i] = cs
	}
	return AttrRows{Table: set.AppendTable([]float64{}), Codes: codes}
}

// canonical reports an error unless r is the form packRows picks for the
// rows it holds: raw rows with more than maxCodes distinct patterns, or a
// table of at most maxCodes distinct patterns, each first used in table
// order, and codes that index it.
func (r *AttrRows) canonical() error {
	switch {
	case r.Raw != nil:
		if r.Table != nil || r.Codes != nil {
			return errors.New("attribute rows in both forms")
		}
		set := version.NewCodeSet()
		defer set.Release()
		for _, row := range r.Raw {
			for _, v := range row {
				if c, _ := set.Code(math.Float64bits(v)); c == 0 {
					return nil
				}
			}
		}
		return fmt.Errorf("raw attribute rows with %d distinct values, at most %d", set.Len(), maxCodes)
	case r.Codes == nil:
		if r.Table != nil {
			return errors.New("an attribute table without codes")
		}
		return nil
	case r.Table == nil:
		return errors.New("attribute codes without a table")
	case len(r.Table) > maxCodes:
		return fmt.Errorf("attribute table of %d entries, at most %d", len(r.Table), maxCodes)
	}
	next := 0 // the code a new pattern gets
	for _, row := range r.Codes {
		var j int
		if next, j = firstUses(row, next, len(r.Table)); j >= 0 {
			if c := row[j]; int(c) >= len(r.Table) {
				return fmt.Errorf("attribute code %d indexes a table of %d", c, len(r.Table))
			}
			return fmt.Errorf("attribute code %d first used before code %d", row[j], next)
		}
	}
	if next != len(r.Table) {
		return fmt.Errorf("attribute table entry %d unused", next)
	}
	set := version.NewCodeSet()
	defer set.Release()
	for _, v := range r.Table {
		if _, fresh := set.Code(math.Float64bits(v)); !fresh {
			return fmt.Errorf("attribute table holds %v twice", v)
		}
	}
	return nil
}

// firstUses scans a code row given the next code a new pattern gets, out
// of n. It returns the next code after the row, and -1 or the index of the
// first code that is out of range or used before a smaller one. It is kept
// out of line, and makes no calls, so its loop stays in registers.
//
//go:noinline
func firstUses(row []byte, next, n int) (int, int) {
	for j, c := range row {
		if int(c) < next {
			continue
		}
		if int(c) > next || next == n {
			return next, j
		}
		next++
	}
	return next, -1
}

// Len reports how many attribute rows r holds.
func (r *AttrRows) Len() int {
	if r.Raw != nil {
		return len(r.Raw)
	}
	return len(r.Codes)
}

// AppendRows appends r's attribute rows to dst, expanding coded ones; each
// expanded row is its own allocation, so a cache can keep it.
func (r *AttrRows) AppendRows(dst [][]float64) [][]float64 {
	if r.Codes == nil {
		return append(dst, r.Raw...)
	}
	var table [maxCodes]float64
	copy(table[:], r.Table)
	for _, cs := range r.Codes {
		var row []float64
		if cs != nil {
			row = make([]float64, len(cs))
			for j, c := range cs {
				row[j] = table[c]
			}
		}
		dst = append(dst, row)
	}
	return dst
}

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
	attrRowsWire(w, &r.Attrs)
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
}

func attrUpdateWire(w *wire, a *AttrUpdate) {
	num(w, &a.V)
	f64s(w, &a.Attr)
}

func updateRequestWire(w *wire, r *UpdateRequest) {
	list(w, &r.Add, 20, rawEdgeWire)
	list(w, &r.Remove, 20, rawEdgeWire)
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
