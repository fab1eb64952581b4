package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernels that run (matMulRow, adamUpdate: the AVX2 assembly on an
// amd64 CPU that has it) against their Go loops, bit for bit. Without the
// assembly both sides are the Go loop, and these tests pass trivially.

// specials are the values a vectorized kernel is most likely to get wrong:
// signed zeros, infinities, NaNs (the quiet NaN Go makes and the one x86
// arithmetic makes), subnormals and values whose products overflow or
// underflow.
var specials = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000000), 5e-324, -5e-324,
	math.SmallestNonzeroFloat64 * 1e10, 1e300, -1e300, 1e-300,
}

// specialInput is a kernelInput whose entries are, one in four, one of
// specials.
func specialInput(rng *rand.Rand, rows, cols int) *Matrix {
	m := kernelInput(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// rowArgs returns matMulRow's operands for one output row: the nonzero
// positions of x, and b as rows of a larger matrix starting at an odd row,
// so that the kernel reads a view.
func rowArgs(rng *rand.Rand, width, nx int, special bool) (x []float64, ks []int, b *Matrix) {
	input := kernelInput
	if special {
		input = specialInput
	}
	x = kernelInput(rng, 1, nx).Data
	for k := range x {
		if special && rng.Intn(5) == 0 {
			x[k] = specials[rng.Intn(len(specials))]
		}
		if x[k] != 0 {
			ks = append(ks, k)
		}
	}
	off := 2*rng.Intn(3) + 1
	b = input(rng, off+nx+1, width).RowSlice(off, off+nx)
	return x, ks, b
}

// sameSliceBits requires identical bits, except that a NaN matches any NaN.
// Which NaN an operation on two NaNs returns depends on the order of its
// operands, which Go does not specify for a commutative add or multiply:
// the compiler orders them as register allocation suits (addScaled4's
// third add takes the sum's NaN, the other three the product's), so no
// other kernel can promise the Go loop's NaN payloads.
func sameSliceBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestMatMulRowMatchesGeneric runs every output width from 0 to 67 (each
// tail length, and rows wider than one 48-element register block) over
// term counts with and without a remainder of four, into zero and partial
// sums, with ordinary and special values in b and in the output row.
func TestMatMulRowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for width := 0; width <= 67; width++ {
		for _, nx := range []int{0, 1, 3, 4, 7, 16, 33} {
			for _, special := range []bool{false, true} {
				name := fmt.Sprintf("width %d, %d terms, special %v", width, nx, special)
				x, ks, b := rowArgs(rng, width, nx, special)
				// Output rows are a row of a view at an odd offset, starting
				// from zero or from a partial sum.
				outs := New(4, width).RowSlice(1, 3)
				partial := kernelInput(rng, 1, width)
				if special {
					partial = specialInput(rng, 1, width)
				}
				copy(outs.Row(1), partial.Data)
				for r := range 2 {
					got := outs.Row(r)
					want := append([]float64(nil), got...)
					matMulRow(got, x, ks, b)
					matMulRowGeneric(want, x, ks, b)
					sameSliceBits(t, fmt.Sprintf("%s, out row %d", name, r), got, want)
				}
			}
		}
	}
}

// TestMatMulTransAChunksBitExact covers operands taller than one
// MatMulTransAAdd chunk: each output element continues its k-order sum
// from chunk to chunk.
func TestMatMulTransAChunksBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, rows := range []int{transAChunk - 1, transAChunk, transAChunk + 1, 2*transAChunk + 37} {
		a, c := kernelInput(rng, rows, 9), kernelInput(rng, rows, 35)
		sameBits(t, fmt.Sprintf("%d rows", rows), MatMulTransA(a, c), matMulNaive(a.Transpose(), c))
	}
}

// FuzzKernelBits decodes one output row, its terms and the rows of b from
// arbitrary bytes (any float64 bit pattern, NaN payloads included) and
// checks matMulRow against matMulRowGeneric bit for bit.
func FuzzKernelBits(f *testing.F) {
	f.Add(uint8(5), uint8(3), []byte("a row of bytes that decodes to floats, some of them special"))
	f.Add(uint8(67), uint8(9), make([]byte, 200))
	f.Add(uint8(32), uint8(48), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 0xff, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, width, nx uint8, data []byte) {
		w, n := int(width)%80, int(nx)%64
		vals := make([]float64, w+n+n*w)
		for i := range vals {
			if len(data) == 0 {
				break
			}
			var word [8]byte
			copy(word[:], data)
			data = data[min(len(data), 8):]
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		got, x := vals[:w], vals[w:w+n]
		b := FromSlice(n, w, vals[w+n:])
		var ks []int
		for k, v := range x {
			if v != 0 {
				ks = append(ks, k)
			}
		}
		want := append([]float64(nil), got...)
		matMulRow(got, x, ks, b)
		matMulRowGeneric(want, x, ks, b)
		sameSliceBits(t, fmt.Sprintf("width %d, %d terms", w, n), got, want)
	})
}

// TestAdamUpdateBitExact compares AdamUpdate with its Go loop over every
// length from 0 to 67 and over sub-ranges [lo, hi) of a longer parameter,
// through several steps so the moments are nonzero.
func TestAdamUpdateBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lr, b1, b2, eps := 0.01, 0.9, 0.999, 1e-8
	state := func(n int) [4][]float64 {
		var s [4][]float64
		for i := range s {
			s[i] = kernelInput(rng, 1, n).Data
		}
		for i, v := range s[2] {
			s[2][i] = math.Abs(v) // second moments are never negative
		}
		return s
	}
	clone := func(s [4][]float64) [4][]float64 {
		var c [4][]float64
		for i := range s {
			c[i] = append([]float64(nil), s[i]...)
		}
		return c
	}
	check := func(name string, got, want [4][]float64, lo, hi int) {
		t.Helper()
		for step := 1; step <= 3; step++ {
			bc1, bc2 := 1-math.Pow(b1, float64(step)), 1-math.Pow(b2, float64(step))
			AdamUpdate(got[0][lo:hi], got[1][lo:hi], got[2][lo:hi], got[3][lo:hi], lr, b1, b2, eps, bc1, bc2)
			adamUpdateGeneric(want[0][lo:hi], want[1][lo:hi], want[2][lo:hi], want[3][lo:hi], newAdamCoeffs(lr, b1, b2, eps, bc1, bc2))
			for i := range got {
				sameSliceBits(t, fmt.Sprintf("%s, step %d, operand %d", name, step, i), got[i], want[i])
			}
		}
	}
	for n := 0; n <= 67; n++ {
		s := state(n)
		check(fmt.Sprintf("length %d", n), s, clone(s), 0, n)
	}
	for _, r := range [][2]int{{0, 5}, {3, 40}, {7, 8}, {13, 67}, {64, 67}, {1, 4100}, {5000, 9000}} {
		s := state(9000)
		check(fmt.Sprintf("range [%d, %d)", r[0], r[1]), s, clone(s), r[0], r[1])
	}
}
