package parabit

import (
	"time"

	"parabit/internal/nvme"
	"parabit/internal/sched"
)

// Operand names a byte range of logical pages participating in a formula.
// Offset and Length are in bytes, sector-aligned (512 B on standard
// pages); Length 0 means one whole page.
type Operand struct {
	LPN    uint64
	Offset int
	Length int
}

// Term is one bitwise batch: first ? second.
type Term struct {
	First, Second Operand
	Op            Op
}

// Formula is a chain of terms combined left to right:
// term[0] combine[0] term[1] combine[1] term[2] ...
// It mirrors the NVMe batch encoding of §4.3.1: Execute lowers it to the
// vendor-field command stream, the device firmware parses it back into
// batches, and the batches execute under the chosen scheme.
type Formula struct {
	Terms   []Term
	Combine []Op
}

func (f Formula) wire(pageSize int) nvme.Formula {
	var out nvme.Formula
	for _, t := range f.Terms {
		out.Terms = append(out.Terms, nvme.Term{
			M:  operandWire(t.First, pageSize),
			N:  operandWire(t.Second, pageSize),
			Op: t.Op.latch(),
		})
	}
	for _, c := range f.Combine {
		out.Combine = append(out.Combine, c.latch())
	}
	return out
}

func operandWire(o Operand, pageSize int) nvme.Operand {
	length := o.Length
	if length == 0 {
		length = pageSize
	}
	return nvme.Operand{LBA: o.LPN, Offset: o.Offset, Length: length}
}

// FormulaResult is the outcome of a formula execution: the final result
// pages and the modeled latencies.
type FormulaResult struct {
	Pages       [][]byte
	Latency     time.Duration // last result page in the controller buffer
	HostLatency time.Duration // last result byte delivered to the host
}

// Execute runs the formula on the device under the scheme: the host
// lowers it to the NVMe command stream, the stream crosses the wire and
// parses back into batches, and the batches execute. Results ship to the
// host.
func (d *Device) Execute(f Formula, scheme Scheme) (FormulaResult, error) {
	batches, err := nvme.RoundTrip(f.wire(d.PageSize()), d.PageSize())
	if err != nil {
		return FormulaResult{}, err
	}
	r := d.sched.Submit(sched.Command{
		Kind:    sched.KindFormula,
		Batches: batches,
		Scheme:  scheme.ssd(),
	}).Wait()
	if r.Err != nil {
		return FormulaResult{}, r.Err
	}
	return FormulaResult{
		Pages:       r.Pages,
		Latency:     r.Done.Sub(r.Start).Std(),
		HostLatency: r.HostDone.Sub(r.Start).Std(),
	}, nil
}
