//go:build !amd64 || purego

package tensor

// Without the amd64 assembly every kernel is its Go loop.

func matMulRow(o, x []float64, ks []int, b *Matrix) { matMulRowGeneric(o, x, ks, b) }

func adamUpdate(val, m, v, g []float64, c *adamCoeffs) { adamUpdateGeneric(val, m, v, g, c) }
