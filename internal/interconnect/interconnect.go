// Package interconnect models the host link between the SSD and the
// memory/compute side (DRAM for the PIM baseline, the FPGA for the ISC
// baseline): a fixed-rate, single-queue bus like the PCIe Gen3 x4 link in
// the paper's motivation study (§3).
//
// Rates are calibrated from the paper's measurements rather than from the
// PCIe spec: moving the 140 GB image-segmentation working set took 43.9 s
// to DRAM (3.19 GB/s effective) and 41.8 s to the FPGA (3.35 GB/s), both
// well under the ~3.94 GB/s raw line rate once protocol overheads apply.
package interconnect

import (
	"fmt"

	"parabit/internal/sim"
)

// Link is a one-direction-at-a-time transfer channel with an effective
// sustained bandwidth and a fixed per-transfer setup latency.
type Link struct {
	bytesPerNs float64
	setup      sim.Duration
	bus        *sim.Resource
}

// PCIeGen3x4ToDRAM returns the SSD->DRAM link of the PIM configuration,
// calibrated to the paper's 140 GB / 43.9 s measurement.
func PCIeGen3x4ToDRAM() *Link {
	return NewLink("pcie3x4-dram", 3.19, 1*sim.Microsecond)
}

// PCIeGen3x4ToFPGA returns the SSD->FPGA link of the ISC configuration
// (the 970 PRO attached to the Cosmos board), calibrated to 140 GB/41.8 s.
func PCIeGen3x4ToFPGA() *Link {
	return NewLink("pcie3x4-fpga", 3.35, 1*sim.Microsecond)
}

// NewLink builds a link with the given effective bandwidth in GB/s
// (= bytes/ns) and per-transfer setup cost. Bandwidth must be positive.
func NewLink(name string, gbPerSec float64, setup sim.Duration) *Link {
	if gbPerSec <= 0 {
		panic(fmt.Sprintf("interconnect: non-positive bandwidth %v", gbPerSec))
	}
	if setup < 0 {
		panic("interconnect: negative setup latency")
	}
	return &Link{
		bytesPerNs: gbPerSec,
		setup:      setup,
		bus:        sim.NewResource(name),
	}
}

// BytesPerSecond returns the effective bandwidth in bytes/second.
func (l *Link) BytesPerSecond() float64 { return l.bytesPerNs * 1e9 }

// TransferTime returns the bus occupancy for n bytes, excluding queueing.
func (l *Link) TransferTime(n int64) sim.Duration {
	if n < 0 {
		panic("interconnect: negative transfer size")
	}
	return l.setup + sim.Duration(float64(n)/l.bytesPerNs)
}

// InstrumentBus installs (or, with nil, removes) a reservation observer
// on the link's bus, giving the host link its own lane in an exported
// trace.
func (l *Link) InstrumentBus(obs sim.ReserveObserver) { l.bus.SetObserver(obs) }

// Transfer books n bytes on the link starting no earlier than at and
// returns when the transfer completes. Transfers never overlap: each takes
// the link's earliest idle gap at or after at that fits it.
func (l *Link) Transfer(n int64, at sim.Time) sim.Time {
	_, end := l.bus.ReserveLabeled(at, l.TransferTime(n), "transfer")
	return end
}

// Reset returns the link to idle at t=0.
func (l *Link) Reset() { l.bus.Reset() }

// BulkSeconds is the analytic helper the paper-scale experiments use:
// the time in seconds to stream n bytes at the link's sustained rate,
// ignoring per-transfer setup (valid for multi-gigabyte sequential moves).
func (l *Link) BulkSeconds(n int64) float64 {
	return float64(n) / l.BytesPerSecond()
}
