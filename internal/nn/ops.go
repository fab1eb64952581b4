package nn

import (
	"math"

	"repro/internal/tensor"
)

// This file defines the differentiable operations recorded on the tape.
// Every op computes its value eagerly and registers a closure that
// accumulates gradients into its inputs when the tape unwinds, each write
// through Tape.accum or, for a product kernel, Tape.accumKernel. The costly
// part of a contribution (a product kernel) runs before the write, so on a
// fork only the final add is deferred.

// addMatrix returns a gradient write that adds m element-wise.
func addMatrix(m *tensor.Matrix) func(g *tensor.Matrix) {
	return func(g *tensor.Matrix) { g.AddInPlace(m) }
}

// addProduct returns a gradient write that adds the element-wise product
// of x and y.
func addProduct(x, y *tensor.Matrix) func(g *tensor.Matrix) {
	return func(g *tensor.Matrix) {
		for i, xv := range x.Data {
			g.Data[i] += float64(xv * y.Data[i])
		}
	}
}

// addRowScaled returns a gradient write that adds row i of m scaled by
// s.Data[i], for every row (s is R x 1).
func addRowScaled(s, m *tensor.Matrix) func(g *tensor.Matrix) {
	return func(g *tensor.Matrix) {
		for i := 0; i < g.Rows; i++ {
			sv := s.Data[i]
			row := g.Row(i)
			for j, mv := range m.Row(i) {
				row[j] += float64(sv * mv)
			}
		}
	}
}

// MatMul returns a @ b.
func (t *Tape) MatMul(a, b *Node) *Node {
	val := tensor.MatMul(a.Val, b.Val)
	needs := a.needs || b.needs
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			if a.needs {
				t.accumKernel(a, func(g *tensor.Matrix) { tensor.MatMulTransBAdd(g, out.grad, b.Val) })
			}
			if b.needs {
				t.accumKernel(b, func(g *tensor.Matrix) { tensor.MatMulTransAAdd(g, a.Val, out.grad) })
			}
		}
	}
	return out
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	val := a.Val.Clone()
	val.AddInPlace(b.Val)
	needs := a.needs || b.needs
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			if a.needs {
				t.accum(a, addMatrix(out.grad))
			}
			if b.needs {
				t.accum(b, addMatrix(out.grad))
			}
		}
	}
	return out
}

// AddBias broadcasts a 1 x C bias row across the R x C matrix a.
func (t *Tape) AddBias(a, bias *Node) *Node {
	if bias.Val.Rows != 1 || bias.Val.Cols != a.Val.Cols {
		panic("nn: AddBias expects 1xC bias matching a's columns")
	}
	val := a.Val.Clone()
	for i := 0; i < val.Rows; i++ {
		row := val.Row(i)
		for j, bv := range bias.Val.Row(0) {
			row[j] += bv
		}
	}
	needs := a.needs || bias.needs
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			if a.needs {
				t.accum(a, addMatrix(out.grad))
			}
			if bias.needs {
				t.accum(bias, func(bg *tensor.Matrix) {
					brow := bg.Row(0)
					for i := 0; i < out.grad.Rows; i++ {
						for j, gv := range out.grad.Row(i) {
							brow[j] += gv
						}
					}
				})
			}
		}
	}
	return out
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	val := a.Val.Clone()
	val.SubInPlace(b.Val)
	needs := a.needs || b.needs
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			if a.needs {
				t.accum(a, addMatrix(out.grad))
			}
			if b.needs {
				t.accum(b, func(g *tensor.Matrix) { g.Axpy(-1, out.grad) })
			}
		}
	}
	return out
}

// Mul returns the element-wise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	val := a.Val.Clone()
	val.MulInPlace(b.Val)
	needs := a.needs || b.needs
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			if a.needs {
				t.accum(a, addProduct(out.grad, b.Val))
			}
			if b.needs {
				t.accum(b, addProduct(out.grad, a.Val))
			}
		}
	}
	return out
}

// Scale returns s * a for a constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	val := a.Val.Clone()
	val.ScaleInPlace(s)
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(g *tensor.Matrix) { g.Axpy(s, out.grad) })
		}
	}
	return out
}

func (t *Tape) unary(a *Node, fwd func(float64) float64, dfdx func(x, y float64) float64) *Node {
	val := a.Val.Apply(fwd)
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for i, g := range out.grad.Data {
					ag.Data[i] += float64(g * dfdx(a.Val.Data[i], val.Data[i]))
				}
			})
		}
	}
	return out
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	return t.unary(a, sigmoid, func(_, y float64) float64 { return y * (1 - y) })
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	return t.unary(a, math.Tanh, func(_, y float64) float64 { return 1 - float64(y*y) })
}

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	return t.unary(a,
		func(x float64) float64 { return math.Max(0, x) },
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Exp applies e^x element-wise.
func (t *Tape) Exp(a *Node) *Node {
	return t.unary(a, math.Exp, func(_, y float64) float64 { return y })
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Softmax applies a row-wise softmax.
func (t *Tape) Softmax(a *Node) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	for i := 0; i < a.Val.Rows; i++ {
		softmaxRow(a.Val.Row(i), val.Row(i))
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for i := 0; i < val.Rows; i++ {
					y := val.Row(i)
					g := out.grad.Row(i)
					dot := 0.0
					for j := range y {
						dot += float64(y[j] * g[j])
					}
					arow := ag.Row(i)
					for j := range y {
						arow[j] += float64(y[j] * (g[j] - dot))
					}
				}
			})
		}
	}
	return out
}

func softmaxRow(in, out []float64) {
	max := math.Inf(-1)
	for _, v := range in {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for j, v := range in {
		out[j] = math.Exp(v - max)
		sum += out[j]
	}
	for j := range out {
		out[j] /= sum
	}
}

// Concat concatenates nodes horizontally (same row count).
func (t *Tape) Concat(ns ...*Node) *Node {
	mats := make([]*tensor.Matrix, len(ns))
	needs := false
	for i, n := range ns {
		mats[i] = n.Val
		needs = needs || n.needs
	}
	val := tensor.ConcatCols(mats...)
	out := t.node(val, needs, nil)
	if needs {
		out.back = func() {
			off := 0
			for _, n := range ns {
				if n.needs {
					lo := off
					t.accum(n, func(ng *tensor.Matrix) {
						for i := 0; i < ng.Rows; i++ {
							grow := out.grad.Row(i)[lo : lo+ng.Cols]
							nrow := ng.Row(i)
							for j, g := range grow {
								nrow[j] += g
							}
						}
					})
				}
				off += n.Val.Cols
			}
		}
	}
	return out
}

// SliceCols returns columns [lo, hi) of a.
func (t *Tape) SliceCols(a *Node, lo, hi int) *Node {
	val := tensor.New(a.Val.Rows, hi-lo)
	for i := 0; i < a.Val.Rows; i++ {
		copy(val.Row(i), a.Val.Row(i)[lo:hi])
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for i := 0; i < val.Rows; i++ {
					arow := ag.Row(i)
					for j, g := range out.grad.Row(i) {
						arow[lo+j] += g
					}
				}
			})
		}
	}
	return out
}

// Gather builds a matrix whose i-th row is a.Row(idx[i]); gradients
// scatter-add back into the gathered rows (sparse embedding update).
func (t *Tape) Gather(a *Node, idx []int) *Node {
	val := tensor.GatherRows(a.Val, idx)
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for i, r := range idx {
					arow := ag.Row(r)
					for j, g := range out.grad.Row(i) {
						arow[j] += g
					}
				}
			})
		}
	}
	return out
}

// MeanRows reduces R x C to 1 x C by column-wise mean.
func (t *Tape) MeanRows(a *Node) *Node {
	val := a.Val.MeanRows()
	out := t.node(val, a.needs, nil)
	if a.needs {
		inv := 1 / float64(a.Val.Rows)
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				g := out.grad.Row(0)
				for i := 0; i < ag.Rows; i++ {
					arow := ag.Row(i)
					for j, gv := range g {
						arow[j] += float64(gv * inv)
					}
				}
			})
		}
	}
	return out
}

// MeanGroupsOf averages groups of k rows of a, one output row per group:
// group g is the mean of a's rows idx[g*k:(g+1)*k], or of rows g*k..g*k+k-1
// when idx is nil. It is the batched mean-AGGREGATE over sampled
// neighbourhoods; with idx it fuses the Gather of the neighbour rows into
// the mean, so the gathered matrix and its gradient are never built, and
// the gradient scatters into a's rows in idx order, as Gather's would.
func (t *Tape) MeanGroupsOf(a *Node, idx []int, k int) *Node {
	rows := a.Val.Rows
	if idx != nil {
		rows = len(idx)
	}
	if rows%k != 0 {
		panic("nn: MeanGroupsOf row count not divisible by group size")
	}
	row := func(i int) int {
		if idx != nil {
			return idx[i]
		}
		return i
	}
	b := rows / k
	val := tensor.New(b, a.Val.Cols)
	for g := 0; g < b; g++ {
		orow := val.Row(g)
		for i := g * k; i < (g+1)*k; i++ {
			arow := a.Val.Row(row(i))
			o := orow[:len(arow)]
			for j, v := range arow {
				o[j] += v
			}
		}
		for j := range orow {
			orow[j] /= float64(k)
		}
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		inv := 1 / float64(k)
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for g := 0; g < b; g++ {
					grow := out.grad.Row(g)
					for i := g * k; i < (g+1)*k; i++ {
						arow := ag.Row(row(i))[:len(grow)]
						for j, gv := range grow {
							arow[j] += float64(gv * inv)
						}
					}
				}
			})
		}
	}
	return out
}

// MaxGroups reduces (B*K) x C to B x C by element-wise max over each group
// of K rows (max-pooling AGGREGATE).
func (t *Tape) MaxGroups(a *Node, k int) *Node {
	if a.Val.Rows%k != 0 {
		panic("nn: MaxGroups row count not divisible by group size")
	}
	b := a.Val.Rows / k
	val := tensor.New(b, a.Val.Cols)
	argmax := make([]int, b*a.Val.Cols)
	for g := 0; g < b; g++ {
		// A column in which no row beats -Inf (all NaN or -Inf) routes its
		// gradient to the group's first row, never outside the group.
		orow := val.Row(g)
		for j := range orow {
			orow[j] = math.Inf(-1)
			argmax[g*a.Val.Cols+j] = g * k
		}
		for r := 0; r < k; r++ {
			row := a.Val.Row(g*k + r)
			for j, v := range row {
				if v > orow[j] {
					orow[j] = v
					argmax[g*a.Val.Cols+j] = g*k + r
				}
			}
		}
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		cols := a.Val.Cols
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for g := 0; g < b; g++ {
					grow := out.grad.Row(g)
					for j, gv := range grow {
						ag.Row(argmax[g*cols+j])[j] += gv
					}
				}
			})
		}
	}
	return out
}

// ScatterMean averages the rows of a into outRows buckets given each row's
// bucket assignment; empty buckets stay zero. It is the variable-group-size
// counterpart of MeanGroupsOf, used when neighbor counts differ per vertex
// (full-neighborhood propagation in HEP).
func (t *Tape) ScatterMean(a *Node, rows []int, outRows int) *Node {
	if len(rows) != a.Val.Rows {
		panic("nn: ScatterMean assignment length mismatch")
	}
	counts := make([]float64, outRows)
	for _, r := range rows {
		counts[r]++
	}
	val := tensor.New(outRows, a.Val.Cols)
	for i, r := range rows {
		orow := val.Row(r)
		for j, v := range a.Val.Row(i) {
			orow[j] += v / counts[r]
		}
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for i, r := range rows {
					arow := ag.Row(i)
					for j, g := range out.grad.Row(r) {
						arow[j] += g / counts[r]
					}
				}
			})
		}
	}
	return out
}

// SumAll reduces to a 1x1 scalar node.
func (t *Tape) SumAll(a *Node) *Node {
	s := 0.0
	for _, v := range a.Val.Data {
		s += v
	}
	val := tensor.FromSlice(1, 1, []float64{s})
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				g := out.grad.Data[0]
				for i := range ag.Data {
					ag.Data[i] += g
				}
			})
		}
	}
	return out
}

// MeanAll reduces to the scalar mean of all elements.
func (t *Tape) MeanAll(a *Node) *Node {
	n := len(a.Val.Data)
	return t.Scale(t.SumAll(a), 1/float64(n))
}

// RowDot computes per-row dot products of same-shape a and b, producing
// R x 1 (the edge-score head used by every link-prediction model).
func (t *Tape) RowDot(a, b *Node) *Node {
	if !a.Val.SameShape(b.Val) {
		panic("nn: RowDot shape mismatch")
	}
	val := tensor.New(a.Val.Rows, 1)
	for i := 0; i < a.Val.Rows; i++ {
		s := 0.0
		ar, br := a.Val.Row(i), b.Val.Row(i)
		for j := range ar {
			s += float64(ar[j] * br[j])
		}
		val.Data[i] = s
	}
	needs := a.needs || b.needs
	out := t.node(val, needs, nil)
	if needs {
		// Each row-dot adds once into each element of a's and of b's
		// gradient, so a's rows may go first and b's after.
		out.back = func() {
			if a.needs {
				t.accum(a, addRowScaled(out.grad, b.Val))
			}
			if b.needs {
				t.accum(b, addRowScaled(out.grad, a.Val))
			}
		}
	}
	return out
}

// RowL2Normalize normalizes each row of a to unit L2 norm (zero rows pass
// through), differentiably.
func (t *Tape) RowL2Normalize(a *Node) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	norms := make([]float64, a.Val.Rows)
	for i := 0; i < a.Val.Rows; i++ {
		row := a.Val.Row(i)
		s := 0.0
		for _, v := range row {
			s += float64(v * v)
		}
		norms[i] = math.Sqrt(s)
		orow := val.Row(i)
		if norms[i] == 0 {
			copy(orow, row)
			continue
		}
		for j, v := range row {
			orow[j] = v / norms[i]
		}
	}
	out := t.node(val, a.needs, nil)
	if a.needs {
		out.back = func() {
			t.accum(a, func(ag *tensor.Matrix) {
				for i := 0; i < ag.Rows; i++ {
					arow := ag.Row(i)
					if norms[i] == 0 {
						for j, g := range out.grad.Row(i) {
							arow[j] += g
						}
						continue
					}
					y := val.Row(i)
					g := out.grad.Row(i)
					dot := 0.0
					for j := range y {
						dot += float64(y[j] * g[j])
					}
					for j := range y {
						arow[j] += (g[j] - float64(y[j]*dot)) / norms[i]
					}
				}
			})
		}
	}
	return out
}
