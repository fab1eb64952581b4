package graph

import "math"

// This file provides the empirical power-law analysis used to validate
// Theorems 1 and 2 of the paper: if the in/out-degree distributions are
// power-law, then k-hop neighborhood sizes and the importance metric are
// power-law too — which is why caching only a small set of important
// vertices captures most remote traffic.

// Histogram counts occurrences of each value in xs; zero values are dropped
// (log-log fits are undefined at zero).
func Histogram(xs []int) map[int]int {
	h := make(map[int]int)
	for _, x := range xs {
		if x > 0 {
			h[x]++
		}
	}
	return h
}

// PowerLawFit holds the result of a least-squares fit of log(count) against
// log(value): count ∝ value^(-Alpha). R2 is the coefficient of
// determination of the log-log regression; values near 1 indicate a good
// power-law fit.
type PowerLawFit struct {
	Alpha float64
	R2    float64
	N     int // number of distinct histogram points used
}

// FitPowerLaw fits a power law to a histogram of positive integer
// observations via linear regression in log-log space. It returns a zero
// fit when fewer than three distinct values are present.
func FitPowerLaw(hist map[int]int) PowerLawFit {
	if len(hist) < 3 {
		return PowerLawFit{N: len(hist)}
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for v, c := range hist {
		if v <= 0 || c <= 0 {
			continue
		}
		x := math.Log(float64(v))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 3 {
		return PowerLawFit{N: n}
	}
	fn := float64(n)
	denom := fn*sxx - sx*sx
	if denom == 0 {
		return PowerLawFit{N: n}
	}
	slope := (fn*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / fn

	// R^2 of the log-log fit.
	meanY := sy / fn
	var ssTot, ssRes float64
	for v, c := range hist {
		if v <= 0 || c <= 0 {
			continue
		}
		x := math.Log(float64(v))
		y := math.Log(float64(c))
		pred := intercept + slope*x
		ssRes += (y - pred) * (y - pred)
		ssTot += (y - meanY) * (y - meanY)
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return PowerLawFit{Alpha: -slope, R2: r2, N: n}
}
