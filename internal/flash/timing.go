package flash

import (
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Timing collects the latency parameters of the modeled MLC flash. The
// defaults are the paper's evaluation constants (§5.1): 25 µs per single
// read operation (SRO) and 640 µs per page program, typical of planar MLC
// parts like the one in the Samsung 970 PRO the authors measured against.
type Timing struct {
	// SenseSRO is one single read operation: applying one reference
	// voltage and latching the comparison. An LSB read costs one SRO, an
	// MSB read two; ParaBit ops cost their control sequence's SRO count.
	SenseSRO sim.Duration
	// ProgramPage is a full-page program (either MLC page).
	ProgramPage sim.Duration
	// EraseBlock is a block erase.
	EraseBlock sim.Duration
	// ChannelBytesPerNs is the per-channel bus rate in bytes per
	// nanosecond (= GB/s). Page transfers between a plane's cache register
	// and the controller serialize on the channel at this rate.
	ChannelBytesPerNs float64
	// CmdOverhead is the fixed command/addressing cost per flash
	// operation on the channel.
	CmdOverhead sim.Duration
	// SenseMWS is one Flash-Cosmos multi-wordline sense: applying the read
	// voltage to several wordlines of one string and latching the single
	// comparison. Slightly above SenseSRO because the shared bitline needs
	// a longer develop time when several cells gate the string.
	SenseMWS sim.Duration
	// MWSSettlePerWL is the extra wordline-driver settle time each
	// additional selected wordline adds to a multi-wordline sense: the
	// drivers charge the selected gates in parallel, so the cost per extra
	// operand is nanoseconds, not another sense.
	MWSSettlePerWL sim.Duration
	// ProgramESP is a page program under enhanced SLC programming
	// (Flash-Cosmos): extra verify loops tighten the threshold
	// distributions so multi-wordline senses keep their margin. The
	// premium over ProgramPage is the price operand writes pay up front
	// for single-sense reductions later.
	ProgramESP sim.Duration
	// MaxReadRetries bounds the calibrated re-reads the baseline path
	// attempts when ECC reports an uncorrectable sector (§5.8's "voltage
	// calibration read"). Each retry costs one extra SRO.
	MaxReadRetries int
}

// DefaultTiming returns the paper's MLC timing with a 400 MB/s ONFI
// channel, giving the 16-channel default geometry a 6.4 GB/s internal read
// bandwidth — comfortably above the ~3.2 GB/s PCIe Gen3 x4 host link, so
// the host link is the movement bottleneck exactly as in the paper's
// motivation experiment.
func DefaultTiming() Timing {
	return Timing{
		SenseSRO:          25 * sim.Microsecond,
		ProgramPage:       640 * sim.Microsecond,
		EraseBlock:        3500 * sim.Microsecond,
		SenseMWS:          28 * sim.Microsecond,
		MWSSettlePerWL:    500 * sim.Nanosecond,
		ProgramESP:        800 * sim.Microsecond,
		ChannelBytesPerNs: 0.4,
		CmdOverhead:       200 * sim.Nanosecond,
		MaxReadRetries:    3,
	}
}

// TLCTiming returns typical planar-TLC latencies for the §4.4.1
// extension: slower sensing and much slower programming than MLC.
func TLCTiming() Timing {
	t := DefaultTiming()
	t.SenseSRO = 60 * sim.Microsecond
	t.ProgramPage = 2000 * sim.Microsecond
	t.EraseBlock = 5000 * sim.Microsecond
	t.SenseMWS = 66 * sim.Microsecond
	t.ProgramESP = 2400 * sim.Microsecond
	return t
}

// Validate reports whether every parameter is positive.
func (t Timing) Validate() error {
	if t.SenseSRO <= 0 || t.ProgramPage <= 0 || t.EraseBlock <= 0 ||
		t.SenseMWS <= 0 || t.MWSSettlePerWL < 0 || t.ProgramESP <= 0 ||
		t.ChannelBytesPerNs <= 0 || t.CmdOverhead < 0 || t.MaxReadRetries < 0 {
		return fmt.Errorf("flash: invalid timing %+v", t)
	}
	return nil
}

// SenseLatency converts a sense's latch cost (latch.Price) into array
// time: its SROs at SenseSRO each — or, for a multi-wordline sense, one
// MWS develop plus the driver settle of each extra selected wordline —
// and its register loads, each a page of pageSize bytes crossing the
// channel into the plane register. This is the Flash-Cosmos payoff: a
// k-operand reduction costs about one SRO where a pairwise chain costs k.
// Array.Sense times every bitwise sense with it, and the analytic cost
// model prices with it.
func (t Timing) SenseLatency(c latch.Cost, pageSize int) sim.Duration {
	d := sim.Duration(c.SROs) * t.SenseSRO
	if c.MWS > 0 {
		d = t.SenseMWS + sim.Duration(c.MWS-1)*t.MWSSettlePerWL
	}
	return d + sim.Duration(c.Loads)*t.Transfer(pageSize)
}

// Transfer returns the channel-bus time to move n bytes.
func (t Timing) Transfer(n int) sim.Duration {
	return t.CmdOverhead + sim.Duration(float64(n)/t.ChannelBytesPerNs)
}

// ReadLatency returns the array-side sense time for a page of the given
// kind: one SRO for LSB pages, two for MSB pages (paper Fig. 3).
func (t Timing) ReadLatency(kind PageKind) sim.Duration {
	if kind == LSBPage {
		return t.SenseSRO
	}
	return 2 * t.SenseSRO
}

// Stats accumulates operation counts across an array's lifetime. The
// energy model converts them to joules; experiments report them directly.
type Stats struct {
	SROs           int64 // single read operations issued
	Programs       int64 // page programs
	Erases         int64 // block erases
	BitwiseOps     int64 // ParaBit sense operations (any variant)
	MWSSenses      int64 // Flash-Cosmos multi-wordline senses issued
	BytesOut       int64 // bytes moved plane -> controller
	BytesIn        int64 // bytes moved controller -> plane
	InjectedFlips  int64 // bit errors injected by the read-noise model
	CorrectedBits  int64 // bits corrected by the baseline ECC path
	ReadRetries    int64 // calibrated re-reads after uncorrectable ECC
	InjectedFaults int64 // structural faults injected by the fault model
	JitterEvents   int64 // operations stretched by injected latency jitter
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.SROs += o.SROs
	s.Programs += o.Programs
	s.Erases += o.Erases
	s.BitwiseOps += o.BitwiseOps
	s.MWSSenses += o.MWSSenses
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.InjectedFlips += o.InjectedFlips
	s.CorrectedBits += o.CorrectedBits
	s.ReadRetries += o.ReadRetries
	s.InjectedFaults += o.InjectedFaults
	s.JitterEvents += o.JitterEvents
}
