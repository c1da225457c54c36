package main

import (
	"encoding/binary"
	"fmt"
	"sort"

	"parabit/internal/latch"
)

// median returns the middle value (mean of the two middle values for an
// even count); it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// midQuantile is the mid-distribution quantile of sorted xs (Ma, Genton
// and Parzen, 2011): the inverse of the mid-CDF F(x) = P(X < x) +
// P(X = x)/2, interpolated linearly between distinct values. Simulated
// latencies take few distinct values, so a plain order statistic reads
// the same for most inputs; the mid-quantile moves with the share of
// each latency class, and on data without ties it is the usual
// interpolated order statistic.
func midQuantile(sorted []float64, p float64) float64 {
	n := float64(len(sorted))
	if n == 0 {
		return 0
	}
	prevX, prevF := sorted[0], -1.0
	for lo := 0; lo < len(sorted); {
		hi := lo
		for hi < len(sorted) && sorted[hi] == sorted[lo] {
			hi++
		}
		x, f := sorted[lo], (float64(lo)+float64(hi-lo)/2)/n
		if p <= f {
			if prevF < 0 {
				return x
			}
			return prevX + (p-prevF)/(f-prevF)*(x-prevX)
		}
		prevX, prevF, lo = x, f, hi
	}
	return prevX
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached reports no activity rather than NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// foldInto computes the golden result of op over pages into dst, which
// must be page-sized: the software model every in-flash result is
// byte-compared against. Pairwise ops take exactly two pages. Pages are
// folded a 64-bit word at a time (page sizes are multiples of 8).
func foldInto(dst []byte, op latch.Op, pages ...[]byte) {
	copy(dst, pages[0])
	base, invert := op, false
	switch op {
	case latch.OpNand:
		base, invert = latch.OpAnd, true
	case latch.OpNor:
		base, invert = latch.OpOr, true
	case latch.OpXnor:
		base, invert = latch.OpXor, true
	}
	le := binary.LittleEndian
	for _, p := range pages[1:] {
		for i := 0; i < len(dst); i += 8 {
			a, b := le.Uint64(dst[i:]), le.Uint64(p[i:])
			switch base {
			case latch.OpAnd:
				a &= b
			case latch.OpOr:
				a |= b
			case latch.OpXor:
				a ^= b
			}
			le.PutUint64(dst[i:], a)
		}
	}
	if invert {
		for i := 0; i < len(dst); i += 8 {
			le.PutUint64(dst[i:], ^le.Uint64(dst[i:]))
		}
	}
}

// mismatch reports a result that differs from the golden model.
func mismatch(what string, got, want []byte) error {
	return fmt.Errorf("%w: %s: got %d bytes %x..., want %x...", errMismatch, what, len(got), head(got), head(want))
}

func head(p []byte) []byte {
	if len(p) > 8 {
		return p[:8]
	}
	return p
}
