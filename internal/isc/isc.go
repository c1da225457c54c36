// Package isc models the in-storage-computing baseline of the paper's
// evaluation (§5.1): the Cosmos OpenSSD platform, whose Zynq-7000 FPGA
// computes bitwise operations in 6-input LUTs. The FPGA runs at 100 MHz
// and the paper's configuration lets each LUT evaluate five two-input
// bitwise operations at once, so one cycle produces
// LUTs x 5 result bits — about 136 KB of results every 10 ns, which is why
// ISC wins the raw 8 MB-operand latency comparison in Fig. 13(b).
//
// Data still has to reach the FPGA: the attached 970 PRO streams operands
// over the measured 3.35 GB/s path, and that movement dominates every
// case study (Fig. 4, Fig. 14).
package isc

import (
	"fmt"
	"math"

	"parabit/internal/interconnect"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Config describes the FPGA fabric.
type Config struct {
	LUTs      int     // available 6-input LUTs
	OpsPerLUT int     // two-input bitwise results per LUT per cycle
	ClockHz   float64 // fabric clock
	// BRAMBits bounds on-chip operand staging; larger working sets stream.
	BRAMBits int64
	// ChunkBytes is the operand staging granularity: bulk data streams
	// through BRAM in chunks of this size (half the BRAM, double-buffered).
	ChunkBytes int64
	// ChunkSetup is the per-chunk DMA/descriptor overhead on the real
	// platform. Fig. 13's op-latency comparison excludes it (operands
	// pre-staged); the case-study compute times include it — it is what
	// makes the paper's measured ISC compute seconds-scale despite the
	// fabric's enormous raw throughput.
	ChunkSetup sim.Duration
}

// DefaultConfig returns the paper's Cosmos configuration: 218,600 LUTs,
// five ops per LUT, 100 MHz, 19.2 Mb BRAM.
func DefaultConfig() Config {
	return Config{
		LUTs:       218600,
		OpsPerLUT:  5,
		ClockHz:    100e6,
		BRAMBits:   19_200_000,
		ChunkBytes: 1_200_000, // 9.6 Mb: half the BRAM, double-buffered
		// Calibrated so the motivation study's AND compute over the
		// 140 GB working set lands at the paper's ≈0.69 s (§3: movement
		// is 60.2x the AND time).
		ChunkSetup: sim.Duration(5.9 * 1000),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LUTs <= 0 || c.OpsPerLUT <= 0 || c.ClockHz <= 0 || c.BRAMBits <= 0 ||
		c.ChunkBytes <= 0 || c.ChunkSetup < 0 {
		return fmt.Errorf("isc: invalid config %+v", c)
	}
	return nil
}

// Device is the ISC platform: FPGA fabric plus the SSD-to-FPGA link.
type Device struct {
	cfg  Config
	link *interconnect.Link
}

// New builds a device; a nil link defaults to the calibrated SSD-to-FPGA
// path.
func New(cfg Config, link *interconnect.Link) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if link == nil {
		link = interconnect.PCIeGen3x4ToFPGA()
	}
	return &Device{cfg: cfg, link: link}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Link returns the SSD-to-FPGA interconnect.
func (d *Device) Link() *interconnect.Link { return d.link }

// CycleTime returns one fabric clock period.
func (d *Device) CycleTime() sim.Duration {
	return sim.Duration(math.Round(1e9 / d.cfg.ClockHz))
}

// BitsPerCycle returns result bits produced per cycle across the fabric.
func (d *Device) BitsPerCycle() int64 {
	return int64(d.cfg.LUTs) * int64(d.cfg.OpsPerLUT)
}

// OpLatency returns the fabric latency of one bulk bitwise operation over
// operands of n bytes each. Every two-input operation is a single LUT
// configuration, so the op type does not change the cost — the property
// Fig. 13(a) shows ("only one process cycle is required").
func (d *Device) OpLatency(op latch.Op, n int64) sim.Duration {
	_ = op // any two-input boolean function fits one LUT pass
	bits := n * 8
	cycles := (bits + d.BitsPerCycle() - 1) / d.BitsPerCycle()
	if cycles < 1 {
		cycles = 1
	}
	return sim.Duration(cycles) * d.CycleTime()
}

// movementSeconds returns the time to stream n bytes from flash to the
// FPGA.
func (d *Device) movementSeconds(n int64) float64 { return d.link.BulkSeconds(n) }

// Plan mirrors pim.Plan for the ISC execution of a bulk workload.
type Plan struct {
	MoveBytes    int64
	MoveSeconds  float64
	ComputeSecs  float64
	TotalSeconds float64
}

// PlanBulk plans numOps bulk operations of operandBytes each with
// moveBytes of input streamed from flash. Unlike OpLatency, bulk compute
// pays the per-chunk BRAM staging overhead: operands pass through the
// FPGA's block RAM in ChunkBytes pieces, each costing ChunkSetup of DMA
// and descriptor handling on top of the fabric time.
func (d *Device) PlanBulk(op latch.Op, numOps int64, operandBytes int64, moveBytes int64) Plan {
	fabric := sim.Duration(numOps) * d.OpLatency(op, operandBytes)
	totalInput := numOps * operandBytes
	chunks := (totalInput + d.cfg.ChunkBytes - 1) / d.cfg.ChunkBytes
	staging := sim.Duration(chunks) * d.cfg.ChunkSetup
	p := Plan{
		MoveBytes:   moveBytes,
		MoveSeconds: d.movementSeconds(moveBytes),
		ComputeSecs: (fabric + staging).Seconds(),
	}
	p.TotalSeconds = p.MoveSeconds + p.ComputeSecs
	return p
}
