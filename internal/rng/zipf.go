package rng

import "math"

// Zipf samples integers in [0, n) with probability proportional to
// 1/(k+1)^s. s = 0 degenerates to uniform. The implementation precomputes
// the CDF and samples by binary search, which is simple, exact and fast for
// the n ≤ ~10^7 key spaces used by the workload generators.
type Zipf struct {
	r   *RNG
	cdf []float64
	n   int
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s >= 0.
// It panics if n <= 0 or s < 0.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("rng: NewZipf with negative exponent")
	}
	z := &Zipf{r: r, n: n, cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	inv := 1 / sum
	for k := range z.cdf {
		z.cdf[k] *= inv
	}
	z.cdf[n-1] = 1 // guard against rounding
	return z
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
