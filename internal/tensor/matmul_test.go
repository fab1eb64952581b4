package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulTransBDot is the reference a @ bᵀ: one dot product per output
// element, summed in k order. MatMulTransB must reproduce it bit for bit.
func matMulTransBDot(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			orow[j] = s
		}
	}
	return out
}

// matMulNaive is the reference a @ b: per output element, the products
// a[i][k]*b[k][j] summed in k order.
func matMulNaive(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k) * b.At(k, j))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// kernelInput is a random matrix in which a share of the rows are exact
// zeros and a share of the other entries are zero too (ReLU outputs).
func kernelInput(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			continue
		}
		for j := range m.Row(i) {
			if rng.Intn(3) != 0 {
				m.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers empty operands, single columns and the odd sizes a
// blocked loop has tails for.
var kernelShapes = [][3]int{
	{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {5, 1, 3}, {4, 3, 1},
	{7, 5, 9}, {16, 48, 32}, {33, 80, 32}, {9, 32, 48},
}

// TestMatMulKernelsBitExact compares every product kernel with its
// per-element reference on random shapes: identical k order means identical
// bits, zero rows included.
func TestMatMulKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range kernelShapes {
		n, k, m := s[0], s[1], s[2]
		name := fmt.Sprintf("%dx%dx%d", n, k, m)
		a := kernelInput(rng, n, k)
		b := kernelInput(rng, k, m)
		sameBits(t, name+" MatMul", MatMul(a, b), matMulNaive(a, b))

		bt := kernelInput(rng, m, k)
		sameBits(t, name+" MatMulTransB", MatMulTransB(a, bt), matMulTransBDot(a, bt))

		c := kernelInput(rng, n, m)
		sameBits(t, name+" MatMulTransA", MatMulTransA(a, c), matMulNaive(a.Transpose(), c))
	}
}

// TestMatMulAddColumnBlocksBitExact splits the inner dimension k into two
// blocks, as a dense layer over [x1 || x2] does: the Add kernels applied
// block by block (a's column blocks against b's row blocks) give the bits
// of the kernels over the whole operands.
func TestMatMulAddColumnBlocksBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range kernelShapes {
		n, k, m := s[0], s[1], s[2]
		for _, split := range []int{0, k / 3, k} {
			name := fmt.Sprintf("%dx%dx%d split %d", n, k, m, split)
			a1, a2 := kernelInput(rng, n, split), kernelInput(rng, n, k-split)
			a := ConcatCols(a1, a2)
			b := kernelInput(rng, k, m)
			got := New(n, m)
			MatMulAdd(got, a1, b.RowSlice(0, split))
			MatMulAdd(got, a2, b.RowSlice(split, k))
			sameBits(t, name+" MatMulAdd", got, MatMul(a, b))

			dy := kernelInput(rng, n, m)
			gw := New(k, m)
			MatMulTransAAdd(gw.RowSlice(0, split), a1, dy)
			MatMulTransAAdd(gw.RowSlice(split, k), a2, dy)
			sameBits(t, name+" MatMulTransAAdd", gw, MatMulTransA(a, dy))

			gx := MatMulTransB(dy, b)
			gx1, gx2 := New(n, split), New(n, k-split)
			MatMulTransBAdd(gx1, dy, b.RowSlice(0, split))
			MatMulTransBAdd(gx2, dy, b.RowSlice(split, k))
			sameBits(t, name+" MatMulTransBAdd", ConcatCols(gx1, gx2), gx)
		}
	}
}

// The train workload's dense layers: ~2.5k rows of 48 features (16 attrs +
// 32 learned) or of 80 (the concat combiner's self || neighbourhood),
// projected to 32.
var benchShapes = []struct{ rows, in, out int }{{2500, 48, 32}, {2500, 80, 32}}

func benchKernel(b *testing.B, run func(rng *rand.Rand, rows, in, out int) func()) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%dto%d", s.rows, s.in, s.out), func(b *testing.B) {
			f := run(rand.New(rand.NewSource(1)), s.rows, s.in, s.out)
			b.ReportAllocs()
			for b.Loop() {
				f()
			}
		})
	}
}

// BenchmarkMatMul is a dense layer's forward product x @ W.
func BenchmarkMatMul(b *testing.B) {
	benchKernel(b, func(rng *rand.Rand, rows, in, out int) func() {
		x, w := kernelInput(rng, rows, in), kernelInput(rng, in, out)
		return func() { MatMul(x, w) }
	})
}

// BenchmarkMatMulTransA is a dense layer's weight gradient xᵀ @ dY.
func BenchmarkMatMulTransA(b *testing.B) {
	benchKernel(b, func(rng *rand.Rand, rows, in, out int) func() {
		x, dy := kernelInput(rng, rows, in), kernelInput(rng, rows, out)
		return func() { MatMulTransA(x, dy) }
	})
}

// BenchmarkMatMulTransB is a dense layer's input gradient dY @ Wᵀ.
func BenchmarkMatMulTransB(b *testing.B) {
	benchKernel(b, func(rng *rand.Rand, rows, in, out int) func() {
		dy, w := kernelInput(rng, rows, out), kernelInput(rng, in, out)
		return func() { MatMulTransB(dy, w) }
	})
}
