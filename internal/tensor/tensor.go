// Package tensor provides the dense matrix type underlying the NN substrate
// (internal/nn). AliGraph's production deployment trains with TensorFlow;
// this reproduction substitutes a small float64 matrix library — the models
// in the paper are small MLPs, attention heads, LSTM cells and VAEs over
// sampled mini-batches, all expressible as dense matrix programs. Every
// operation returns a freshly allocated (and zeroed) matrix, except the
// product kernels' Add forms, which accumulate into a matrix the caller
// owns. The product kernels and the Adam update have AVX2 assembly on amd64
// (kernels_amd64.s) beside the pure-Go loops that every other architecture,
// a CPU without AVX2 and a -tags purego build run. The assembly vectorizes
// across output elements only: each element takes the same multiplies and
// adds, in the same order, as in the Go loop, so both paths give the same
// bits. No kernel fuses a multiply into an add: the Go loops convert each
// product explicitly (float64(x*y)), which forbids the compiler to fuse it
// on architectures such as arm64, and scripts/check-nofma.sh checks that.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data len %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// RowSlice returns rows [lo, hi) of m as a matrix that shares m's storage.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Zero resets all elements in place.
func (m *Matrix) Zero() { clear(m.Data) }

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) shapeCheck(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// AddInPlace adds o element-wise into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.shapeCheck(o, "add")
	d := m.Data[:len(o.Data)]
	for i, v := range o.Data {
		d[i] += v
	}
}

// SubInPlace subtracts o element-wise from m.
func (m *Matrix) SubInPlace(o *Matrix) {
	m.shapeCheck(o, "sub")
	d := m.Data[:len(o.Data)]
	for i, v := range o.Data {
		d[i] -= v
	}
}

// MulInPlace multiplies element-wise by o.
func (m *Matrix) MulInPlace(o *Matrix) {
	m.shapeCheck(o, "mul")
	d := m.Data[:len(o.Data)]
	for i, v := range o.Data {
		d[i] *= v
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	d := m.Data
	for i := range d {
		d[i] *= s
	}
}

// Axpy adds a*x into m (BLAS axpy).
func (m *Matrix) Axpy(a float64, x *Matrix) {
	m.shapeCheck(x, "axpy")
	d := m.Data[:len(x.Data)]
	for i, v := range x.Data {
		d[i] += float64(a * v)
	}
}

// MatMul computes a @ b into a fresh matrix.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulAdd(out, a, b)
	return out
}

// MatMulAdd adds a @ b into out in ikj order: each row of out accumulates
// the rows of b scaled by the row's entries of a, so every output element
// sums its products in k order, exactly as a dot product would. Zero
// entries of a (ReLU outputs) are skipped. Into an all-zero out it gives
// MatMul's bits; into a partial sum it continues each element's sum, so the
// column blocks of a matrix, each multiplied in turn by the matching row
// block of b, give the bits of one product over the whole matrix.
//
// Each output row is one matMulRow call: on amd64 CPUs with AVX2 an
// assembly kernel that holds the row in vector registers across all k, and
// elsewhere (or built with -tags purego) matMulRowGeneric. Both round every
// product and every sum on its own, with no fused multiply-add, so they
// give the same bits.
func MatMulAdd(out, a, b *Matrix) {
	if out.Rows != a.Rows || out.Cols != b.Cols || a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	ks := make([]int, a.Cols) // the nonzero columns of a's current row
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		nk := 0
		for k, av := range arow {
			// Every k is written and kept only if av is nonzero: a loop
			// with no branch on the data, which has unpredictable zeros.
			ks[nk] = k
			if av != 0 {
				nk++
			}
		}
		matMulRow(out.Row(i), arow, ks[:nk], b)
	}
}

// MatMulTransA computes aᵀ @ b into a fresh matrix.
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAAdd(out, a, b)
	return out
}

// MatMulTransAAdd adds aᵀ @ b into out. Row i of out accumulates the rows
// of b scaled by column i of a, in k order. The rows of a and b are taken
// transAChunk at a time: per chunk, each column of a is gathered with its
// nonzero entries' positions, and one matMulRow call adds its terms into
// out's row i, so every element of out sums its products in k order across
// the chunks, as a dot product would.
func MatMulTransAAdd(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: matmulTransA shape mismatch")
	}
	var col [transAChunk]float64
	var ks [transAChunk]int
	for lo := 0; lo < a.Rows; lo += transAChunk {
		hi := min(lo+transAChunk, a.Rows)
		bc := b.RowSlice(lo, hi)
		for i := 0; i < a.Cols; i++ {
			nk := 0
			for k, p := 0, lo*a.Cols+i; k < hi-lo; k, p = k+1, p+a.Cols {
				x := a.Data[p]
				col[k] = x
				ks[nk] = k
				if x != 0 {
					nk++
				}
			}
			matMulRow(out.Row(i), col[:hi-lo], ks[:nk], bc)
		}
	}
}

// transAChunk is the number of rows of a and b one MatMulTransAAdd pass
// takes: its buffers (4 KB) live on the stack, and a chunk of the train
// workload's operands stays in cache while each column of a is gathered.
const transAChunk = 256

// MatMulTransB computes a @ bᵀ into a fresh matrix.
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBAdd(out, a, b)
	return out
}

// MatMulTransBAdd adds a @ bᵀ into out through MatMulAdd over a transposed
// copy of b (in the backward pass b is a weight matrix, small beside a).
// Into an all-zero out, element (i, j) sums a[i][k]*b[j][k] in k order, as
// a dot product would, and gets the same bits: the kernel skips the
// products of zero entries of a, and for finite b each of those is ±0,
// which leaves unchanged a sum that starts at +0.
func MatMulTransBAdd(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic("tensor: matmulTransB shape mismatch")
	}
	MatMulAdd(out, a, b.Transpose())
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Dot computes the Frobenius inner product of two same-shape matrices.
func Dot(a, b *Matrix) float64 {
	a.shapeCheck(b, "dot")
	s := 0.0
	for i, v := range a.Data {
		s += float64(v * b.Data[i])
	}
	return s
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Apply maps fn over all elements into a fresh matrix.
func (m *Matrix) Apply(fn func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = fn(v)
	}
	return out
}

// XavierInit fills m with Glorot-uniform values for fanIn/fanOut.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		// Inlined, rng.Float64 is a product (an integer times 2⁻⁶³), so
		// it is rounded explicitly too.
		u := float64(rng.Float64())
		m.Data[i] = (float64(u*2) - 1) * limit
	}
}

// GaussianInit fills m with N(0, std^2) values.
func (m *Matrix) GaussianInit(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// RowL2Normalize normalizes each row to unit L2 norm in place (the
// per-hop normalization step of Algorithm 1 line 7). Zero rows are left
// untouched.
func (m *Matrix) RowL2Normalize() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for _, v := range row {
			s += float64(v * v)
		}
		if s == 0 {
			continue
		}
		inv := 1 / math.Sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
}

// ConcatCols horizontally concatenates matrices with equal row counts.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic("tensor: concat row mismatch")
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// GatherRows builds a matrix whose i-th row is src.Row(idx[i]).
func GatherRows(src *Matrix, idx []int) *Matrix {
	out := New(len(idx), src.Cols)
	for i, r := range idx {
		copy(out.Row(i), src.Row(r))
	}
	return out
}

// MeanRows returns the 1 x Cols column-wise mean.
func (m *Matrix) MeanRows() *Matrix {
	out := New(1, m.Cols)
	if m.Rows == 0 {
		return out
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	out.ScaleInPlace(1 / float64(m.Rows))
	return out
}
