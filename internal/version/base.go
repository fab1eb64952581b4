package version

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// slotIndex finds a local vertex's base slot: its rank among the sorted
// local IDs. While the IDs span at most 64 values per local vertex, it is a
// bitmap over [lo, hi] plus the count of set bits before each 64-bit word,
// so a lookup is two loads and a popcount, in at most 12 bytes per local
// vertex (a map would take more). A wider span would cost more than that,
// so the index then binary-searches local, which costs nothing extra.
type slotIndex struct {
	lo, hi graph.ID
	words  []uint64 // bit o set: lo+o is local; nil on the search path
	before []uint32 // set bits in words[:w]
	local  []graph.ID
}

// newSlotIndex indexes local, which must be sorted and free of duplicates.
func newSlotIndex(local []graph.ID) *slotIndex {
	ix := &slotIndex{lo: 0, hi: -1, local: local}
	n := uint64(len(local))
	if n == 0 {
		return ix
	}
	ix.lo, ix.hi = local[0], local[n-1]
	if uint64(ix.hi)-uint64(ix.lo) >= 64*n {
		return ix
	}
	ix.words = make([]uint64, (uint64(ix.hi)-uint64(ix.lo))/64+1)
	ix.before = make([]uint32, len(ix.words))
	for _, v := range local {
		o := uint64(v) - uint64(ix.lo)
		ix.words[o/64] |= 1 << (o % 64)
	}
	c := uint32(0)
	for w, x := range ix.words {
		ix.before[w] = c
		c += uint32(bits.OnesCount64(x))
	}
	return ix
}

// slot returns v's rank among the local IDs, or -1 when v is not local.
func (ix *slotIndex) slot(v graph.ID) int {
	if v < ix.lo || v > ix.hi {
		return -1
	}
	if ix.words == nil {
		if i, ok := slices.BinarySearch(ix.local, v); ok {
			return i
		}
		return -1
	}
	o := uint64(v) - uint64(ix.lo)
	w, bit := ix.words[o/64], uint64(1)<<(o%64)
	if w&bit == 0 {
		return -1
	}
	return int(ix.before[o/64]) + bits.OnesCount64(w&(bit-1))
}

// attrColumn holds a base's attribute rows in slot order, the way the CSR
// holds adjacency: slot i's row is [offs[i], offs[i+1]) of codes, one-byte
// indexes into table, when the base's rows hold at most MaxCodes distinct
// float64 bit patterns (table lists them in first-appearance order), and of
// vals otherwise. Exactly one of codes and vals is non-nil. nils marks the
// slots whose row is nil, and is nil when no row is.
type attrColumn struct {
	offs  []int64
	codes []byte
	table []float64
	vals  []float64
	nils  []uint64
}

// newAttrColumn builds the column of n slots, where row(i) is slot i's row.
// It calls row twice per slot, and uses each result before the next call.
func newAttrColumn(n int, row func(i int) []float64) *attrColumn {
	c := &attrColumn{offs: make([]int64, n+1)}
	set := NewCodeSet()
	defer set.Release()
	coded := true
	for i := range n {
		r := row(i)
		if r == nil {
			if c.nils == nil {
				c.nils = make([]uint64, (n+63)/64)
			}
			c.nils[i/64] |= 1 << (i % 64)
		}
		c.offs[i+1] = c.offs[i] + int64(len(r))
		for j := 0; coded && j < len(r); j++ {
			k, _ := set.Code(math.Float64bits(r[j]))
			coded = k != 0
		}
	}
	if !coded {
		c.vals = make([]float64, c.offs[n])
		for i := range n {
			copy(c.vals[c.offs[i]:], row(i))
		}
		return c
	}
	c.table, c.codes = set.AppendTable([]float64{}), make([]byte, c.offs[n])
	for i := range n {
		set.Codes(row(i), c.codes[c.offs[i]:]) // every pattern is in the set
	}
	return c
}

// row returns slot i's row as stored: codes into c.table for a coded
// column, which are non-nil unless the row is nil, or the row's values
// otherwise. Both alias the column.
func (c *attrColumn) row(i int) (vals []float64, codes []byte) {
	if c.nils != nil && c.nils[i/64]&(1<<(i%64)) != 0 {
		return nil, nil
	}
	lo, hi := c.offs[i], c.offs[i+1]
	if c.codes != nil {
		return nil, c.codes[lo:hi:hi]
	}
	return c.vals[lo:hi:hi], nil
}

// floats returns slot i's row as values: the column's own for a float
// column, or the codes looked up in table, written to dst when it has room
// and to a new slice otherwise.
func (c *attrColumn) floats(i int, dst []float64) []float64 {
	vals, codes := c.row(i)
	if codes == nil {
		return vals
	}
	if dst == nil || cap(dst) < len(codes) {
		dst = make([]float64, len(codes))
	}
	dst = dst[:len(codes)]
	for j, k := range codes {
		dst[j] = c.table[k]
	}
	return dst
}
