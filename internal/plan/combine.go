package plan

import (
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// CombineCost models folding result pages in a buffer outside the flash
// array, in the controller or on the host: a conservative 4 bytes per
// simulated nanosecond per input page.
func CombineCost(pages, bytes int) sim.Duration {
	return sim.Duration(pages * bytes / 4)
}

// Combine applies one operation across already-materialized result pages
// in host software: the gather half of a scatter/gather query, where
// sub-expressions executed on different devices and only their result
// bytes are available. NOT takes exactly one page; the associative ops
// fold left to right. Both run the latch package's page kernel, the one
// the flash array computes sense results with, so the bytes match a
// device execution of the same node exactly.
func Combine(op latch.Op, pages [][]byte) ([]byte, error) {
	if op == latch.OpNotLSB || op == latch.OpNotMSB {
		if len(pages) != 1 {
			return nil, fmt.Errorf("%w: NOT over %d pages", ErrBadExpr, len(pages))
		}
		out := make([]byte, len(pages[0]))
		op.Apply(out, pages[0], pages[0])
		return out, nil
	}
	if len(pages) < 2 {
		return nil, fmt.Errorf("%w: %s over %d pages", ErrBadExpr, op, len(pages))
	}
	for _, p := range pages[1:] {
		if len(p) != len(pages[0]) {
			return nil, fmt.Errorf("%w: page sizes %d vs %d", ErrBadExpr, len(p), len(pages[0]))
		}
	}
	out := make([]byte, len(pages[0]))
	op.Fold(out, pages)
	return out, nil
}
