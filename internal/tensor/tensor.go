// Package tensor provides the dense matrix type underlying the NN substrate
// (internal/nn). AliGraph's production deployment trains with TensorFlow;
// this reproduction substitutes a small float64 matrix library — the models
// in the paper are small MLPs, attention heads, LSTM cells and VAEs over
// sampled mini-batches, all expressible as dense matrix programs. Every
// operation returns a freshly allocated (and zeroed) matrix; the kernels
// are scalar Go loops, with no SIMD and no buffer reuse.
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
		d[i] += a * v
	}
}

// MatMul computes a @ b into a fresh matrix.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matMulAdd(out, a, b)
	return out
}

// MatMulInto computes a @ b into out.
func MatMulInto(out, a, b *Matrix) {
	if out.Rows != a.Rows || out.Cols != b.Cols || a.Cols != b.Rows {
		panic("tensor: matmul shape mismatch")
	}
	out.Zero()
	matMulAdd(out, a, b)
}

// matMulAdd adds a @ b into out in ikj order: each row of out accumulates
// the rows of b scaled by the row's entries of a, so every output element
// sums its products in k order, exactly as a dot product would. Zero
// entries of a (ReLU outputs) are skipped, and the rest are applied four at
// a time.
func matMulAdd(out, a, b *Matrix) {
	ks := make([]int, 0, a.Cols) // the nonzero columns of a's current row
	for i := 0; i < a.Rows; i++ {
		arow, orow := a.Row(i), out.Row(i)
		ks = ks[:0]
		for k, av := range arow {
			if av != 0 {
				ks = append(ks, k)
			}
		}
		q := 0
		for ; q+4 <= len(ks); q += 4 {
			k0, k1, k2, k3 := ks[q], ks[q+1], ks[q+2], ks[q+3]
			addScaled4(orow, arow[k0], arow[k1], arow[k2], arow[k3], b.Row(k0), b.Row(k1), b.Row(k2), b.Row(k3))
		}
		for _, k := range ks[q:] {
			addScaled(orow, arow[k], b.Row(k))
		}
	}
}

// addScaled adds x*b into o.
func addScaled(o []float64, x float64, b []float64) {
	o = o[:len(b)]
	for j, bv := range b {
		o[j] += x * bv
	}
}

// addScaled4 adds x0*b0, x1*b1, x2*b2 and x3*b3 into o. Each element takes
// the four products one addition at a time, in that order, so the result is
// bit-identical to four addScaled calls; it is loaded and stored once
// instead of four times.
func addScaled4(o []float64, x0, x1, x2, x3 float64, b0, b1, b2, b3 []float64) {
	o = o[:len(b0)]
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	for j, bv := range b0 {
		s := o[j]
		s += x0 * bv
		s += x1 * b1[j]
		s += x2 * b2[j]
		s += x3 * b3[j]
		o[j] = s
	}
}

// MatMulTransA computes aᵀ @ b. Row i of the result accumulates the rows of
// b scaled by column i of a, in k order. Each column's nonzero entries wait
// in pend until four are ready for one addScaled4 pass.
func MatMulTransA(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("tensor: matmulTransA shape mismatch")
	}
	out := New(a.Cols, b.Cols)
	type term struct {
		x float64
		k int
	}
	pend := make([][4]term, a.Cols)
	npend := make([]int, a.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		pend, npend := pend[:len(arow)], npend[:len(arow)]
		for i, x := range arow {
			if x == 0 {
				continue
			}
			p := &pend[i]
			c := npend[i]
			p[c] = term{x, k}
			if c < 3 {
				npend[i] = c + 1
				continue
			}
			npend[i] = 0
			addScaled4(out.Row(i), p[0].x, p[1].x, p[2].x, p[3].x, b.Row(p[0].k), b.Row(p[1].k), b.Row(p[2].k), b.Row(p[3].k))
		}
	}
	for i, c := range npend {
		for _, t := range pend[i][:c] {
			addScaled(out.Row(i), t.x, b.Row(t.k))
		}
	}
	return out
}

// MatMulTransB computes a @ bᵀ through MatMul's kernel over a transposed
// copy of b (in the backward pass b is a weight matrix, small beside a).
// Element (i, j) sums a[i][k]*b[j][k] in k order, as a dot product would,
// and gets the same bits: the kernel skips the products of zero entries of
// a, and for finite b each of those is ±0, which leaves unchanged a sum
// that starts at +0.
func MatMulTransB(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("tensor: matmulTransB shape mismatch")
	}
	out := New(a.Rows, b.Rows)
	matMulAdd(out, a, b.Transpose())
	return out
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
		s += v * b.Data[i]
	}
	return s
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
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
		m.Data[i] = (rng.Float64()*2 - 1) * limit
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
			s += v * v
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
