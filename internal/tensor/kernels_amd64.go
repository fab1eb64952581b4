//go:build amd64 && !purego

package tensor

// hasAVX2 selects the assembly kernels in kernels_amd64.s; without AVX2 the
// Go loops run.
var hasAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID leaves 1 and 7, XCR0).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// adamBlock is the number of elements one adamAVX2 call updates (a few
// microseconds of work): an assembly call cannot be preempted, so a large
// parameter is updated in blocks.
const adamBlock = 4096

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matMulRowAVX2 adds x[k] times row k of b into the n elements at o, for
// the nk indices k at ks, in order; b's rows are ldb elements apart.
//
//go:noescape
func matMulRowAVX2(o *float64, n int, x *float64, ks *int, nk int, b *float64, ldb int)

// adamAVX2 is adamUpdateGeneric over the n elements at val, m, v and grad.
//
//go:noescape
func adamAVX2(val, m, v, grad *float64, n int, c *adamCoeffs)

// matMulRow adds x[k]*b.Row(k) into o for each k in ks, in order. The
// assembly keeps o in registers across all k, in blocks of up to 48
// elements, and gives matMulRowGeneric's bits. ks ascend (both callers
// list them in order), so the bounds checks on the last one cover every
// x[k] and every element of b the assembly reads.
func matMulRow(o, x []float64, ks []int, b *Matrix) {
	if !hasAVX2 || len(ks) == 0 || len(o) == 0 {
		matMulRowGeneric(o, x, ks, b)
		return
	}
	last := ks[len(ks)-1]
	_, _ = x[last], b.Data[last*b.Cols+len(o)-1]
	matMulRowAVX2(&o[0], len(o), &x[0], &ks[0], len(ks), &b.Data[0], b.Cols)
}

// adamUpdate is adamUpdateGeneric, four elements per vector operation.
func adamUpdate(val, m, v, g []float64, c *adamCoeffs) {
	if !hasAVX2 {
		adamUpdateGeneric(val, m, v, g, c)
		return
	}
	val, m, v = val[:len(g)], m[:len(g)], v[:len(g)]
	for len(g) > 0 {
		n := min(len(g), adamBlock)
		adamAVX2(&val[0], &m[0], &v[0], &g[0], n, c)
		val, m, v, g = val[n:], m[n:], v[n:], g[n:]
	}
}
