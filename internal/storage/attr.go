package storage

import (
	"encoding/binary"
	"math"
)

// AttributeIndex is the deduplicating attribute store of Section 3.2: each
// distinct attribute vector is stored once and referenced from the adjacency
// table by a compact index. Attributes in real e-commerce graphs overlap
// heavily (many vertices share "gender=male" style vectors), so separating
// them reduces space from O(n*N_D*N_L) to O(n*N_D + N_A*N_L).
//
// A small LRU cache fronts lookups to model the paper's cache of frequently
// accessed items; Lookup goes through the cache while Direct bypasses it
// (used to measure the benefit).
type AttributeIndex struct {
	keys  map[string]int32
	vecs  [][]float64
	cache *LRU[[]float64]
}

// NewAttributeIndex creates an index whose access cache holds cacheCap
// entries.
func NewAttributeIndex(cacheCap int) *AttributeIndex {
	return &AttributeIndex{
		keys:  make(map[string]int32),
		cache: NewLRU[[]float64](cacheCap),
	}
}

// vecKey encodes a float64 vector into a compact byte-string map key.
func vecKey(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return string(buf)
}

// Intern stores vec if unseen and returns its index. A nil vector interns
// to -1. The stored vector is shared with the caller; do not mutate it.
func (ai *AttributeIndex) Intern(vec []float64) int32 {
	if vec == nil {
		return -1
	}
	k := vecKey(vec)
	if idx, ok := ai.keys[k]; ok {
		return idx
	}
	idx := int32(len(ai.vecs))
	ai.keys[k] = idx
	ai.vecs = append(ai.vecs, vec)
	return idx
}

// Lookup returns the attribute vector at idx through the LRU cache.
// Index -1 returns nil.
func (ai *AttributeIndex) Lookup(idx int32) []float64 {
	if idx < 0 {
		return nil
	}
	if v, ok := ai.cache.Get(int64(idx)); ok {
		return v
	}
	v := ai.vecs[idx]
	ai.cache.Put(int64(idx), v)
	return v
}

// Direct returns the attribute vector at idx bypassing the cache.
func (ai *AttributeIndex) Direct(idx int32) []float64 {
	if idx < 0 {
		return nil
	}
	return ai.vecs[idx]
}

// NumDistinct reports N_A, the number of distinct attribute vectors stored.
func (ai *AttributeIndex) NumDistinct() int { return len(ai.vecs) }

// Bytes estimates the storage footprint of the deduplicated vectors.
func (ai *AttributeIndex) Bytes() int64 {
	var b int64
	for _, v := range ai.vecs {
		b += int64(8 * len(v))
	}
	return b
}
