package ftl

import (
	"fmt"
	"math"

	"parabit/internal/flash"
)

// The mapping tables are flat arrays, split into fixed-size pages that
// are allocated on first write — the demand-paged layout a
// DRAM-constrained controller gives its L2P table (DFTL). The LPN-indexed
// tables (l2p, vers) cost one pointer per 2048 logical pages until data
// lands, and a lookup is two indexed loads with no hashing. The reverse
// map is paged by erase block instead (planeAlloc.owners): a block's page
// exists only while the block holds valid data, so garbage-heavy flash
// costs nothing.
const (
	tablePageBits = 11
	tablePageLen  = 1 << tablePageBits
	tablePageMask = tablePageLen - 1
)

// table maps page numbers below its size to values; 0 means absent.
type table[T uint32 | uint64] struct {
	pages []*[tablePageLen]T
}

func newTable[T uint32 | uint64](n uint64) table[T] {
	return table[T]{pages: make([]*[tablePageLen]T, (n+tablePageMask)>>tablePageBits)}
}

// get returns the value at i, or 0 when i was never set or lies beyond
// the table.
func (t *table[T]) get(i uint64) T {
	if hi := i >> tablePageBits; hi < uint64(len(t.pages)) {
		if p := t.pages[hi]; p != nil {
			return p[i&tablePageMask]
		}
	}
	return 0
}

// set stores v at i, allocating i's page on first use. i must lie below
// the table's size.
func (t *table[T]) set(i uint64, v T) { *t.at(i) = v }

// at returns i's entry, allocating i's page on first use. i must lie
// below the table's size.
func (t *table[T]) at(i uint64) *T {
	p := t.pages[i>>tablePageBits]
	if p == nil {
		p = new([tablePageLen]T)
		t.pages[i>>tablePageBits] = p
	}
	return &p[i&tablePageMask]
}

// each calls fn for every nonzero entry in ascending index order.
func (t *table[T]) each(fn func(i uint64, v T)) {
	for hi, p := range t.pages {
		if p == nil {
			continue
		}
		base := uint64(hi) << tablePageBits
		for lo, v := range p {
			if v != 0 {
				fn(base+uint64(lo), v)
			}
		}
	}
}

// leaf returns blk's reverse-map leaf on pa, taking a spare or fresh one
// when the block had none.
func (f *FTL) leaf(pa *planeAlloc, blk int) []uint32 {
	if pa.owners == nil {
		pa.owners = make([][]uint32, f.geo.BlocksPerPlane)
	}
	l := pa.owners[blk]
	if l == nil {
		if n := len(f.spare); n > 0 {
			l, f.spare = f.spare[n-1], f.spare[:n-1]
		} else {
			l = make([]uint32, f.perBlock)
		}
		pa.owners[blk] = l
	}
	return l
}

// releaseLeaf drops the leaf of blk, which no longer holds valid pages.
// A few spares stay for reuse, so blocks cycling between live and
// collected allocate nothing in the steady state.
func (f *FTL) releaseLeaf(pa *planeAlloc, blk int) {
	if len(f.spare) < len(f.planes) {
		f.spare = append(f.spare, pa.owners[blk])
	}
	pa.owners[blk] = nil
}

// CheckGeometry reports whether the FTL can map geo: its page numbers,
// stored off by one so that 0 means unmapped, must fit the uint32
// entries of the mapping tables.
func CheckGeometry(geo flash.Geometry) error {
	if n := geo.TotalPages(); n > math.MaxUint32 {
		return fmt.Errorf("ftl: %d physical pages exceed the %d a mapping entry addresses", n, uint64(math.MaxUint32))
	}
	return nil
}
