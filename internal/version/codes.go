package version

import (
	"math"
	"sync"
)

// MaxCodes is the largest table a one-byte code can index.
const MaxCodes = 256

// CodeSet assigns codes to distinct float64 bit patterns in first-appearance
// order, up to MaxCodes of them. It is an open-addressing hash table over
// twice that many slots, so a lookup costs the same whatever the table
// holds. A base codes its attribute column with one, and the wire codes a
// reply's rows with another.
type CodeSet struct {
	slot [2 * MaxCodes]uint16 // code+1 of the pattern hashed here; 0 is empty
	bits [MaxCodes]uint64     // each code's pattern
	n    int
}

// codeSets recycles emptied sets: at 3 KB, one on the stack would make
// every RPC handler goroutine, which starts with a smaller stack, grow it.
var codeSets = sync.Pool{New: func() any { return new(CodeSet) }}

// NewCodeSet returns an empty set; Release returns it to the pool.
func NewCodeSet() *CodeSet { return codeSets.Get().(*CodeSet) }

// Release empties s and recycles it; s must not be used afterwards.
func (s *CodeSet) Release() {
	*s = CodeSet{}
	codeSets.Put(s)
}

// Len reports how many patterns s holds.
func (s *CodeSet) Len() int { return s.n }

// codeSlot returns the slot bits hashes to first: the top 9 bits of a
// multiplicative hash, for 2*MaxCodes slots.
func codeSlot(bits uint64) uint64 { return (bits * 0x9e3779b97f4a7c15) >> 55 }

// Codes writes the codes of row's values to cs, giving each new pattern
// the next code, and reports false once a pattern past MaxCodes appears.
func (s *CodeSet) Codes(row []float64, cs []byte) bool {
	for j := 0; ; j++ {
		if j += s.hits(row[j:], cs[j:]); j == len(row) {
			return true
		}
		c, _ := s.Code(math.Float64bits(row[j]))
		if c == 0 {
			return false
		}
		cs[j] = byte(c - 1)
	}
}

// AppendTable appends the set's patterns to dst in code order.
func (s *CodeSet) AppendTable(dst []float64) []float64 {
	for _, bits := range s.bits[:s.n] {
		dst = append(dst, math.Float64frombits(bits))
	}
	return dst
}

// hits writes the codes of row's values to cs while they are already in
// the set and hash to their first probe, and returns how many it wrote. It
// is kept out of line, and makes no calls, so the compiler keeps its loop
// in registers.
//
//go:noinline
func (s *CodeSet) hits(row []float64, cs []byte) int {
	cs = cs[:len(row)]
	for j, v := range row {
		bits := math.Float64bits(v)
		c := s.slot[codeSlot(bits)]
		if c == 0 || s.bits[byte(c-1)] != bits {
			return j
		}
		cs[j] = byte(c - 1)
	}
	return len(row)
}

// Code returns the code+1 of bits, giving a new pattern the next code; 0
// once a pattern past MaxCodes appears. fresh reports a new pattern.
func (s *CodeSet) Code(bits uint64) (c uint16, fresh bool) {
	at := codeSlot(bits)
	for c = s.slot[at]; c != 0; c = s.slot[at] {
		if s.bits[byte(c-1)] == bits {
			return c, false
		}
		at = (at + 1) & (2*MaxCodes - 1)
	}
	if s.n == MaxCodes {
		return 0, true
	}
	s.bits[s.n] = bits
	s.n++
	s.slot[at] = uint16(s.n)
	return s.slot[at], true
}
