// Package flash models an MLC NAND flash array: the physical geometry
// (channels, chips, dies, planes, blocks, wordlines), page storage with MLC
// program constraints, operation timing with per-plane and per-channel
// occupancy, and the ParaBit bitwise sense operations built on the
// internal/latch control sequences.
//
// Page data is allocated lazily — an erased wordline stores nothing and
// reads back all-ones (every cell in state E) — so small functional
// simulations are cheap while paper-scale geometries remain constructible
// for timing-only use.
package flash

import (
	"errors"
	"fmt"
)

// Geometry describes the physical organization of the array. The paper's
// evaluated SSD (§5.1) has 128 chips with 8 KB pages arranged so one
// parallel wave touches two 8 MB operands, which requires 1024 planes:
// 16 channels x 8 chips x 2 dies x 4 planes.
type Geometry struct {
	Channels          int
	ChipsPerChannel   int
	DiesPerChip       int
	PlanesPerDie      int
	BlocksPerPlane    int
	WordlinesPerBlock int
	PageSize          int // bytes per page
	// CellBits is the bits stored per cell: 2 (MLC, two pages per
	// wordline — the paper's evaluated configuration) or 3 (TLC, three
	// pages per wordline — the §4.4.1 extension).
	CellBits int
}

// Default returns the paper's evaluated geometry: a 512 GB MLC SSD whose
// 1024 planes compute on two 8 MB operands per wave.
func Default() Geometry {
	return Geometry{
		Channels:          16,
		ChipsPerChannel:   8,
		DiesPerChip:       2,
		PlanesPerDie:      4,
		BlocksPerPlane:    512,
		WordlinesPerBlock: 64,
		PageSize:          8 * 1024,
		CellBits:          2,
	}
}

// Small returns a geometry sized for functional tests and examples:
// 2 channels x 2 chips x 1 die x 2 planes with 256-byte pages (8 MB total).
func Small() Geometry {
	return Geometry{
		Channels:          2,
		ChipsPerChannel:   2,
		DiesPerChip:       1,
		PlanesPerDie:      2,
		BlocksPerPlane:    64,
		WordlinesPerBlock: 32,
		PageSize:          256,
		CellBits:          2,
	}
}

// SmallTLC returns the Small geometry in TLC mode: three pages per
// wordline, for functional tests of the §4.4.1 extension.
func SmallTLC() Geometry {
	g := Small()
	g.CellBits = 3
	return g
}

// Validate reports whether every dimension is positive.
func (g Geometry) Validate() error {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"ChipsPerChannel", g.ChipsPerChannel},
		{"DiesPerChip", g.DiesPerChip},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"WordlinesPerBlock", g.WordlinesPerBlock},
		{"PageSize", g.PageSize},
	} {
		if d.v <= 0 {
			return fmt.Errorf("flash: geometry %s = %d, must be positive", d.name, d.v)
		}
	}
	if g.CellBits != 2 && g.CellBits != 3 {
		return fmt.Errorf("flash: CellBits = %d, must be 2 (MLC) or 3 (TLC)", g.CellBits)
	}
	return nil
}

// Chips returns the total chip count.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// Dies returns the total die count.
func (g Geometry) Dies() int { return g.Chips() * g.DiesPerChip }

// Planes returns the total plane count — the device's wave width in pages.
func (g Geometry) Planes() int { return g.Dies() * g.PlanesPerDie }

// PlanesPerChannel returns the planes reachable through one channel.
func (g Geometry) PlanesPerChannel() int {
	return g.ChipsPerChannel * g.DiesPerChip * g.PlanesPerDie
}

// PagesPerBlock returns pages per block: CellBits per wordline.
func (g Geometry) PagesPerBlock() int { return g.CellBits * g.WordlinesPerBlock }

// PagesPerPlane returns pages per plane.
func (g Geometry) PagesPerPlane() int { return g.BlocksPerPlane * g.PagesPerBlock() }

// TotalPages returns the device's physical page count.
func (g Geometry) TotalPages() int64 {
	return int64(g.Planes()) * int64(g.PagesPerPlane())
}

// CapacityBytes returns the raw capacity.
func (g Geometry) CapacityBytes() int64 { return g.TotalPages() * int64(g.PageSize) }

// WaveBytes returns the bytes one all-planes-parallel operation touches per
// page role: with every plane sensing one wordline, each of the two operand
// pages contributes Planes()*PageSize bytes (8 MB on the default geometry).
func (g Geometry) WaveBytes() int64 { return int64(g.Planes()) * int64(g.PageSize) }

// PageKind selects which of a wordline's two MLC pages is addressed.
type PageKind uint8

const (
	// LSBPage is the page stored in the cells' least-significant bits.
	LSBPage PageKind = iota
	// MSBPage is the MLC most-significant page. In TLC mode, kind 1 is
	// the centre (CSB) page of the gray code; the historical MLC name is
	// kept because the MLC evaluation is the paper's primary target.
	MSBPage
	// TopPage is the third page of a TLC wordline (the TLC gray code's
	// MSB). Valid only when Geometry.CellBits == 3.
	TopPage
)

func (k PageKind) String() string {
	switch k {
	case LSBPage:
		return "LSB"
	case MSBPage:
		return "MSB"
	case TopPage:
		return "TOP"
	}
	return fmt.Sprintf("PageKind(%d)", uint8(k))
}

// PlaneAddr identifies one plane.
type PlaneAddr struct {
	Channel, Chip, Die, Plane int
}

// WordlineAddr identifies one wordline (a row of MLC cells = two pages).
type WordlineAddr struct {
	PlaneAddr
	Block, WL int
}

// PageAddr identifies one page.
type PageAddr struct {
	WordlineAddr
	Kind PageKind
}

func (p PlaneAddr) String() string {
	return fmt.Sprintf("ch%d/chip%d/die%d/pl%d", p.Channel, p.Chip, p.Die, p.Plane)
}

func (w WordlineAddr) String() string {
	return fmt.Sprintf("%v/blk%d/wl%d", w.PlaneAddr, w.Block, w.WL)
}

func (p PageAddr) String() string {
	return fmt.Sprintf("%v/%v", p.WordlineAddr, p.Kind)
}

// ErrBadAddress reports an address outside the geometry.
var ErrBadAddress = errors.New("flash: address out of range")

// CheckPlane validates a plane address against the geometry.
func (g Geometry) CheckPlane(p PlaneAddr) error {
	if p.Channel < 0 || p.Channel >= g.Channels ||
		p.Chip < 0 || p.Chip >= g.ChipsPerChannel ||
		p.Die < 0 || p.Die >= g.DiesPerChip ||
		p.Plane < 0 || p.Plane >= g.PlanesPerDie {
		return fmt.Errorf("%w: %v", ErrBadAddress, p)
	}
	return nil
}

// CheckWordline validates a wordline address.
func (g Geometry) CheckWordline(w WordlineAddr) error {
	if err := g.CheckPlane(w.PlaneAddr); err != nil {
		return err
	}
	if w.Block < 0 || w.Block >= g.BlocksPerPlane || w.WL < 0 || w.WL >= g.WordlinesPerBlock {
		return fmt.Errorf("%w: %v", ErrBadAddress, w)
	}
	return nil
}

// PlaneIndex linearizes a plane address: channel-major, then chip, die,
// plane. The FTL's striped allocator walks this order so consecutive
// logical pages land on different channels first.
func (g Geometry) PlaneIndex(p PlaneAddr) int {
	return ((p.Channel*g.ChipsPerChannel+p.Chip)*g.DiesPerChip+p.Die)*g.PlanesPerDie + p.Plane
}

// PlaneAt inverts PlaneIndex.
func (g Geometry) PlaneAt(idx int) PlaneAddr {
	var p PlaneAddr
	p.Plane = idx % g.PlanesPerDie
	idx /= g.PlanesPerDie
	p.Die = idx % g.DiesPerChip
	idx /= g.DiesPerChip
	p.Chip = idx % g.ChipsPerChannel
	p.Channel = idx / g.ChipsPerChannel
	return p
}

// PPN linearizes a page address into a physical page number.
func (g Geometry) PPN(p PageAddr) uint64 {
	plane := uint64(g.PlaneIndex(p.PlaneAddr))
	cb := uint64(g.CellBits)
	inPlane := (uint64(p.Block)*uint64(g.WordlinesPerBlock)+uint64(p.WL))*cb + uint64(p.Kind)
	return plane*uint64(g.PagesPerPlane()) + inPlane
}

// PageAt inverts PPN.
func (g Geometry) PageAt(ppn uint64) PageAddr {
	perPlane := uint64(g.PagesPerPlane())
	plane := g.PlaneAt(int(ppn / perPlane))
	in := ppn % perPlane
	cb := uint64(g.CellBits)
	kind := PageKind(in % cb)
	wlIdx := in / cb
	return PageAddr{
		WordlineAddr: WordlineAddr{
			PlaneAddr: plane,
			Block:     int(wlIdx) / g.WordlinesPerBlock,
			WL:        int(wlIdx) % g.WordlinesPerBlock,
		},
		Kind: kind,
	}
}

// CheckPage validates a full page address, including the kind against
// the cell mode.
func (g Geometry) CheckPage(p PageAddr) error {
	if err := g.CheckWordline(p.WordlineAddr); err != nil {
		return err
	}
	if int(p.Kind) >= g.CellBits {
		return fmt.Errorf("%w: kind %v on %d-bit cells", ErrBadAddress, p.Kind, g.CellBits)
	}
	return nil
}
