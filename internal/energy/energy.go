// Package energy models per-operation NAND energy in the style of the
// Micron NAND system power calculator the paper uses for Fig. 16:
// energy = VCC x ICC x duration for each phase of an operation (array
// sensing, programming, I/O transfer).
//
// Currents are calibrated to the paper's two normalization anchors:
//
//   - ParaBit's worst case (the 4-SRO XOR/XNOR) is about 2x the baseline
//     MSB read — automatic, since both are pure sensing and 4 SROs are
//     twice an MSB read's 2.
//   - ParaBit-ReAlloc's worst case consumes up to 2.65% more than the
//     baseline (two-page) write: the reallocation's reads and sensing add
//     (75+100) µs of read current against 1280 µs of program current,
//     pinning I_read/I_program ≈ 0.2.
package energy

import (
	"fmt"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Params are the electrical parameters of the modeled flash die.
type Params struct {
	VCC float64 // supply voltage, volts
	// Currents in amperes drawn during each phase.
	IRead     float64 // array sensing (per SRO)
	IProgram  float64 // page program
	IErase    float64 // block erase
	ITransfer float64 // I/O transfer on the channel
}

// DefaultParams returns the calibrated 3.3 V MLC parameters.
func DefaultParams() Params {
	return Params{
		VCC:       3.3,
		IRead:     0.003,
		IProgram:  0.025,
		IErase:    0.025,
		ITransfer: 0.005,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.VCC <= 0 || p.IRead <= 0 || p.IProgram <= 0 || p.IErase <= 0 || p.ITransfer <= 0 {
		return fmt.Errorf("energy: invalid params %+v", p)
	}
	return nil
}

// Model computes operation energies for a flash timing configuration.
type Model struct {
	p  Params
	tm flash.Timing
	// pageSize for transfer durations.
	pageSize int
}

// NewModel builds a model; panics on invalid parameters (code-supplied).
func NewModel(p Params, tm flash.Timing, pageSize int) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Model{p: p, tm: tm, pageSize: pageSize}
}

// DefaultModel returns the calibrated model on the paper's MLC timing.
func DefaultModel() *Model {
	return NewModel(DefaultParams(), flash.DefaultTiming(), flash.Default().PageSize)
}

func (m *Model) phase(i float64, d sim.Duration) float64 {
	return m.p.VCC * i * d.Seconds()
}

// SenseEnergy returns the energy of n SROs.
func (m *Model) SenseEnergy(n int) float64 {
	return m.phase(m.p.IRead, sim.Duration(n)*m.tm.SenseSRO)
}

// bitwiseEnergy returns the energy of one bitwise sense of kind over k
// operand wordlines with op, drawing read current for as long as the
// array senses it (its latch cost at flash.Timing.SenseLatency), plus the
// result's transfer out.
func (m *Model) bitwiseEnergy(kind latch.SenseKind, op latch.Op, k int) float64 {
	sense := m.tm.SenseLatency(latch.MustPrice(kind, op, k), m.pageSize)
	return m.phase(m.p.IRead, sense) + m.TransferEnergy()
}

// TransferEnergy returns the energy of one page crossing the channel.
func (m *Model) TransferEnergy() float64 {
	return m.phase(m.p.ITransfer, m.tm.Transfer(m.pageSize))
}

// ProgramEnergy returns the energy of one page program (transfer + cell
// programming).
func (m *Model) ProgramEnergy() float64 {
	return m.TransferEnergy() + m.phase(m.p.IProgram, m.tm.ProgramPage)
}

// EraseEnergy returns the energy of one block erase.
func (m *Model) EraseEnergy() float64 {
	return m.phase(m.p.IErase, m.tm.EraseBlock)
}

// ReadLSBEnergy is the baseline LSB page read (1 SRO + transfer out).
func (m *Model) ReadLSBEnergy() float64 { return m.SenseEnergy(1) + m.TransferEnergy() }

// ReadMSBEnergy is the baseline MSB page read (2 SROs + transfer out) —
// the read normalization reference of Fig. 16.
func (m *Model) ReadMSBEnergy() float64 { return m.SenseEnergy(2) + m.TransferEnergy() }

// WriteEnergy is the baseline MSB-page write — the write normalization
// reference of Fig. 16.
func (m *Model) WriteEnergy() float64 { return m.ProgramEnergy() }

// ParaBitEnergy is a pre-allocated (co-located) ParaBit operation: the
// control sequence's sensing plus the result transfer out.
func (m *Model) ParaBitEnergy(op latch.Op) float64 {
	return m.bitwiseEnergy(latch.SensePair, op, 1)
}

// ReAllocEnergy is a ParaBit-ReAlloc operation: read both operands (LSB +
// MSB with transfers), program them paired, then the operation's sensing
// and result transfer.
func (m *Model) ReAllocEnergy(op latch.Op) float64 {
	reads := m.ReadLSBEnergy() + m.ReadMSBEnergy()
	programs := 2 * m.ProgramEnergy()
	return reads + programs + m.bitwiseEnergy(latch.SensePair, op, 1)
}

// LocFreeEnergy is a location-free operation over aligned LSB operands.
func (m *Model) LocFreeEnergy(op latch.Op) float64 {
	return m.bitwiseEnergy(latch.SenseLocFreeLSB, op, 2)
}

// Fig16Row is one operation's energies normalized to the baselines: the
// sensing-only schemes against the MSB read, ReAlloc against the write.
type Fig16Row struct {
	Op             latch.Op
	ParaBitVsRead  float64 // ParaBit / baseline MSB read
	LocFreeVsRead  float64 // LocFree / baseline MSB read
	ReAllocVsWrite float64 // ReAlloc / (2x baseline write), the realloc's program pair
	ParaBitJoules  float64
	LocFreeJoules  float64
	ReAllocJoules  float64
}

// Fig16 computes the normalized per-operation energies of every ParaBit
// variant, the content of the paper's Fig. 16.
func (m *Model) Fig16() []Fig16Row {
	rows := make([]Fig16Row, 0, len(latch.Ops))
	for _, op := range latch.Ops {
		r := Fig16Row{
			Op:            op,
			ParaBitJoules: m.ParaBitEnergy(op),
			LocFreeJoules: m.LocFreeEnergy(op),
			ReAllocJoules: m.ReAllocEnergy(op),
		}
		r.ParaBitVsRead = r.ParaBitJoules / m.ReadMSBEnergy()
		r.LocFreeVsRead = r.LocFreeJoules / m.ReadMSBEnergy()
		r.ReAllocVsWrite = r.ReAllocJoules / (2 * m.WriteEnergy())
		rows = append(rows, r)
	}
	return rows
}
