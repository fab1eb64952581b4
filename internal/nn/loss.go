package nn

import (
	"math"

	"repro/internal/tensor"
)

// Losses. Each returns a scalar (1x1) node suitable for Tape.Backward.

// MSE returns mean((pred - target)²) where target is a constant.
func (t *Tape) MSE(pred *Node, target *tensor.Matrix) *Node {
	diff := t.Sub(pred, t.Input(target))
	return t.MeanAll(t.Mul(diff, diff))
}

// BCEWithLogits computes the numerically stable mean binary cross entropy
// between logits x and constant {0,1} labels y:
// mean(max(x,0) - x*y + log(1+e^{-|x|})).
func (t *Tape) BCEWithLogits(logits *Node, labels *tensor.Matrix) *Node {
	if logits.Val.Rows != labels.Rows || logits.Val.Cols != labels.Cols {
		panic("nn: BCEWithLogits shape mismatch")
	}
	n := float64(len(labels.Data))
	val := tensor.New(1, 1)
	for i, x := range logits.Val.Data {
		y := labels.Data[i]
		val.Data[0] += math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	}
	val.Data[0] /= n
	out := t.node(val, logits.needs, nil)
	if logits.needs {
		out.back = func() {
			t.accum(logits, func(lg *tensor.Matrix) {
				g := out.grad.Data[0] / n
				for i, x := range logits.Val.Data {
					lg.Data[i] += g * (sigmoid(x) - labels.Data[i])
				}
			})
		}
	}
	return out
}

// SoftmaxCE computes the mean cross entropy of row-wise softmax(logits)
// against integer class labels.
func (t *Tape) SoftmaxCE(logits *Node, labels []int) *Node {
	rows := logits.Val.Rows
	if len(labels) != rows {
		panic("nn: SoftmaxCE label count mismatch")
	}
	probs := tensor.New(rows, logits.Val.Cols)
	val := tensor.New(1, 1)
	for i := 0; i < rows; i++ {
		softmaxRow(logits.Val.Row(i), probs.Row(i))
		p := probs.At(i, labels[i])
		val.Data[0] -= math.Log(math.Max(p, 1e-12))
	}
	val.Data[0] /= float64(rows)
	out := t.node(val, logits.needs, nil)
	if logits.needs {
		out.back = func() {
			t.accum(logits, func(lg *tensor.Matrix) {
				g := out.grad.Data[0] / float64(rows)
				for i := 0; i < rows; i++ {
					lrow := lg.Row(i)
					prow := probs.Row(i)
					for j := range lrow {
						d := prow[j]
						if j == labels[i] {
							d -= 1
						}
						lrow[j] += g * d
					}
				}
			})
		}
	}
	return out
}

// NegSamplingLoss is the skip-gram negative sampling objective over
// positive and negative score nodes (each R x 1 logits):
// -mean(log σ(pos)) - mean(log σ(-neg)).
func (t *Tape) NegSamplingLoss(pos, neg *Node) *Node {
	onesP := tensor.New(pos.Val.Rows, 1)
	onesP.Fill(1)
	zerosN := tensor.New(neg.Val.Rows, 1)
	lp := t.BCEWithLogits(pos, onesP)
	ln := t.BCEWithLogits(neg, zerosN)
	return t.Add(lp, ln)
}

// L2Penalty returns 0.5 * λ * Σ‖p‖² over the given parameters as a scalar
// node (the Ω(Θ) regularizer in the AHEP loss, Equation 2).
func (t *Tape) L2Penalty(lambda float64, params ...*Param) *Node {
	val := tensor.New(1, 1)
	for _, p := range params {
		for _, v := range p.Val.Data {
			val.Data[0] += 0.5 * lambda * v * v
		}
	}
	out := t.node(val, true, nil)
	out.back = func() {
		g := out.grad.Data[0]
		for _, p := range params {
			t.accumParam(p, func(pg *tensor.Matrix) {
				for i, v := range p.Val.Data {
					pg.Data[i] += g * lambda * v
				}
			})
		}
	}
	return out
}

// AddScalars sums scalar nodes (loss composition).
func (t *Tape) AddScalars(ns ...*Node) *Node {
	out := ns[0]
	for _, n := range ns[1:] {
		out = t.Add(out, n)
	}
	return out
}
