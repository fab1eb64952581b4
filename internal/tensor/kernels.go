package tensor

import "math"

// The pure-Go kernels. They are the only path on architectures without an
// assembly kernel, on amd64 CPUs without AVX2 and under -tags purego, and
// the oracle the assembly is tested against everywhere else. Each product
// is converted explicitly (float64(x*y)) before it is added: the Go spec
// lets a compiler fuse x*y + z into one multiply-add with a single rounding
// (arm64 does), and the conversion forbids that, so every architecture
// rounds the product and the sum separately, as the assembly does.

// matMulRowGeneric adds x[k]*b.Row(k) into o for each k in ks, in ks's
// order: every element of o sums its products in that order, four terms
// per pass over o.
func matMulRowGeneric(o, x []float64, ks []int, b *Matrix) {
	q := 0
	for ; q+4 <= len(ks); q += 4 {
		k0, k1, k2, k3 := ks[q], ks[q+1], ks[q+2], ks[q+3]
		addScaled4(o, x[k0], x[k1], x[k2], x[k3], b.Row(k0), b.Row(k1), b.Row(k2), b.Row(k3))
	}
	for _, k := range ks[q:] {
		addScaled(o, x[k], b.Row(k))
	}
}

// addScaled adds x*b into o.
func addScaled(o []float64, x float64, b []float64) {
	o = o[:len(b)]
	for j, bv := range b {
		o[j] += float64(x * bv)
	}
}

// addScaled4 adds x0*b0, x1*b1, x2*b2 and x3*b3 into o. Each element
// takes the four products one addition at a time, in that order, each
// product rounded before it is added, so the result is bit-identical to
// four addScaled calls (and to the AVX2 row kernel, which keeps the row in
// registers across all its terms instead); o is loaded and stored once
// instead of four times.
func addScaled4(o []float64, x0, x1, x2, x3 float64, b0, b1, b2, b3 []float64) {
	o = o[:len(b0)]
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	for j, bv := range b0 {
		s := o[j]
		s += float64(x0 * bv)
		s += float64(x1 * b1[j])
		s += float64(x2 * b2[j])
		s += float64(x3 * b3[j])
		o[j] = s
	}
}

// adamCoeffs are one Adam step's constants, in the order the assembly
// reads them: c1 = 1-b1 and c2 = 1-b2, bc1 and bc2 the bias corrections.
type adamCoeffs struct{ b1, c1, b2, c2, bc1, bc2, lr, eps float64 }

// AdamUpdate applies one Adam step to each element i of g's range, given
// the step's bias corrections bc1 = 1-b1^t and bc2 = 1-b2^t:
//
//	m[i] = b1*m[i] + (1-b1)*g[i]
//	v[i] = b2*v[i] + ((1-b2)*g[i])*g[i]
//	val[i] -= (lr * (m[i]/bc1)) / (sqrt(v[i]/bc2) + eps)
//
// with every operation rounded on its own, in that association, on both
// paths (AVX2 assembly, adamUpdateGeneric). val, m and v must be at least
// as long as g.
func AdamUpdate(val, m, v, g []float64, lr, b1, b2, eps, bc1, bc2 float64) {
	n := len(g)
	adamUpdate(val[:n], m[:n], v[:n], g, newAdamCoeffs(lr, b1, b2, eps, bc1, bc2))
}

func newAdamCoeffs(lr, b1, b2, eps, bc1, bc2 float64) *adamCoeffs {
	return &adamCoeffs{b1, 1 - b1, b2, 1 - b2, bc1, bc2, lr, eps}
}

// adamUpdateGeneric is AdamUpdate's Go loop; val, m and v have g's length.
func adamUpdateGeneric(val, m, v, g []float64, c *adamCoeffs) {
	val, m, v = val[:len(g)], m[:len(g)], v[:len(g)]
	for i, gi := range g {
		m[i] = float64(c.b1*m[i]) + float64(c.c1*gi)
		v[i] = float64(c.b2*v[i]) + float64(c.c2*gi*gi)
		val[i] -= c.lr * (m[i] / c.bc1) / (math.Sqrt(v[i]/c.bc2) + c.eps)
	}
}
