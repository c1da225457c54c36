// Package pim models the Ambit in-DRAM bulk bitwise baseline the paper
// compares against (§5.1): a DRAM with triple-row-activation compute,
// 16 KB row buffers, and the published timing parameters
// tRCD/tRAS/tRP/tFAW = 13.75/35/13.75/30 ns.
//
// Ambit executes bulk bitwise operations as sequences of AAP
// (ACTIVATE-ACTIVATE-PRECHARGE) primitives that copy operand rows into the
// designated triple-activation rows and copy the computed row out. The AAP
// count per operation follows Ambit's command sequences: a row-wide NOT is
// one AAP through the dual-contact cell; AND/OR are MAJ-based with three
// input copies plus the result activation; the XOR family composes
// AND/OR/NOT. Per §5.2 of the ParaBit paper, operands wider than one row
// buffer are partitioned into 16 KB chunks whose computations are
// sequentialized.
//
// The absolute AAP latency is calibrated, not H-SPICE-derived: the paper
// reports ParaBit-ReAlloc NOT-MSB (≈740 µs) as 25.8x slower than PIM on
// 8 MB operands, which pins NOT on 8 MB at ≈28.7 µs, i.e. 56 ns per
// 16 KB chunk — one AAP. The same constant makes a single-chunk AND land
// in the low hundreds of ns, matching Fig. 13(a)'s "ns level".
package pim

import (
	"fmt"

	"parabit/internal/interconnect"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Config describes the Ambit-style DRAM device.
type Config struct {
	Ranks            int
	BanksPerRank     int
	SubarraysPerBank int
	RowBufferBytes   int // bytes computed per triple-row activation
	// DRAM timing in nanoseconds (floats: tRCD is 13.75 ns), kept for
	// documentation and derived checks.
	TRCDns, TRASns, TRPns, TFAWns float64
	// AAP is the ACTIVATE-ACTIVATE-PRECHARGE latency, the unit every
	// operation cost is expressed in.
	AAP sim.Duration
	// CapacityBytes is the DRAM size; data sets beyond it must stream
	// from storage (the paper's motivation).
	CapacityBytes int64
}

// DefaultConfig returns the paper's "powerful" Ambit configuration:
// 2 ranks, 16 banks, 256 subarrays, 16 KB row buffer, 64 GB DRAM.
func DefaultConfig() Config {
	return Config{
		Ranks:            2,
		BanksPerRank:     16,
		SubarraysPerBank: 256,
		RowBufferBytes:   16 * 1024,
		TRCDns:           13.75,
		TRASns:           35,
		TRPns:            13.75,
		TFAWns:           30,
		AAP:              56 * sim.Nanosecond,
		CapacityBytes:    64 << 30,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ranks <= 0 || c.BanksPerRank <= 0 || c.SubarraysPerBank <= 0 ||
		c.RowBufferBytes <= 0 || c.AAP <= 0 || c.CapacityBytes <= 0 {
		return fmt.Errorf("pim: invalid config %+v", c)
	}
	return nil
}

// AAPCount returns the number of AAP primitives one row-wide operation
// takes. The counts assume Ambit's bulk sequences with result-row reuse
// (the accumulator stays in a triple-activation row across a chained
// reduction, saving one copy), which is how the paper's case studies run;
// they are calibrated against the paper's reported PIM compute times
// (e.g. 353 ms of AND over the 33.99 GB bitmap working set = 3 AAPs of
// 56 ns per 16 KB chunk).
func AAPCount(op latch.Op) int {
	switch op {
	case latch.OpNotLSB, latch.OpNotMSB:
		// One AAP through the dual-contact cell row.
		return 1
	case latch.OpAnd, latch.OpOr:
		// Copy operand and control rows in, TRA-activate the result.
		return 3
	case latch.OpNand, latch.OpNor:
		// AND/OR plus the inverting copy-out.
		return 4
	case latch.OpXor, latch.OpXnor:
		// Composed from AND/OR/NOT per Ambit's XOR recipe.
		return 5
	}
	panic(fmt.Sprintf("pim: unknown op %v", op))
}

// Device is an Ambit PIM attached to the SSD by a host link.
type Device struct {
	cfg  Config
	link *interconnect.Link
}

// New builds a device; a nil link defaults to the calibrated PCIe Gen3 x4
// SSD-to-DRAM link.
func New(cfg Config, link *interconnect.Link) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if link == nil {
		link = interconnect.PCIeGen3x4ToDRAM()
	}
	return &Device{cfg: cfg, link: link}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Link returns the SSD-to-DRAM interconnect.
func (d *Device) Link() *interconnect.Link { return d.link }

// ChunkLatency returns the latency of one row-buffer-wide (16 KB)
// operation.
func (d *Device) ChunkLatency(op latch.Op) sim.Duration {
	return sim.Duration(AAPCount(op)) * d.cfg.AAP
}

// Chunks returns how many row-buffer chunks an operand of n bytes spans.
func (d *Device) Chunks(n int64) int64 {
	rb := int64(d.cfg.RowBufferBytes)
	return (n + rb - 1) / rb
}

// OpLatency returns the latency of a bulk bitwise operation over operands
// of n bytes each. Chunks are sequentialized (§5.2): a pair of 8 MB
// operands is 512 serial row operations.
func (d *Device) OpLatency(op latch.Op, n int64) sim.Duration {
	return sim.Duration(d.Chunks(n)) * d.ChunkLatency(op)
}

// movementSeconds returns the time to move n bytes from the SSD into
// DRAM over the host link.
func (d *Device) movementSeconds(n int64) float64 { return d.link.BulkSeconds(n) }

// Plan describes a PIM execution of a bulk bitwise workload: how much data
// must move from the SSD and how long the in-DRAM compute takes.
type Plan struct {
	MoveBytes    int64
	MoveSeconds  float64
	ComputeOps   int64 // row-buffer chunk operations
	ComputeSecs  float64
	TotalSeconds float64
}

// PlanBulk plans numOps bulk operations, each over two operands of
// operandBytes, whose inputs total moveBytes on the SSD. Operands beyond
// DRAM capacity stream through; per the paper's methodology the cost model
// charges one pass of input movement and ignores result writeback.
func (d *Device) PlanBulk(op latch.Op, numOps int64, operandBytes int64, moveBytes int64) Plan {
	compute := sim.Duration(numOps) * d.OpLatency(op, operandBytes)
	p := Plan{
		MoveBytes:   moveBytes,
		MoveSeconds: d.movementSeconds(moveBytes),
		ComputeOps:  numOps * d.Chunks(operandBytes),
		ComputeSecs: compute.Seconds(),
	}
	p.TotalSeconds = p.MoveSeconds + p.ComputeSecs
	return p
}
