package experiments

import (
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/ssd"
	"parabit/internal/workload"
)

func init() {
	register("fig14a", "Case study: image segmentation breakdown", Fig14a)
	register("fig14b", "Case study: bitmap indices breakdown", Fig14b)
	register("fig14c", "Case study: image encryption breakdown", Fig14c)
	register("fig15", "Location-free ParaBit comparison", Fig15)
	register("endurance", "§5.4 endurance: effective TBW per case study", Endurance)
	register("compression", "§5.7 compression break-even vs PIM", Compression)
}

// Breakdown is one scheme's execution-time split for a case study — the
// stacked bars of Fig. 14.
type Breakdown struct {
	Scheme string
	// OpeMove is operand movement from the SSD (PIM/ISC only).
	OpeMove float64
	// Bitwise is compute time (in DRAM, FPGA or flash).
	Bitwise float64
	// ResMove is result movement to the host (ParaBit schemes).
	ResMove float64
	// Total executes the phases back to back; TotalPipe overlaps compute
	// with result movement (the paper's "+Res-Move" pipelining).
	Total     float64
	TotalPipe float64
	// ReallocGB is the logical operand volume reallocated (endurance
	// input, §5.4).
	ReallocGB float64
}

func (b *Breakdown) finish(waves float64) {
	b.Total = b.OpeMove + b.Bitwise + b.ResMove
	b.TotalPipe = b.OpeMove + pipeline(b.Bitwise, b.ResMove, waves)
}

// reduceStudy computes the five-scheme breakdown for a k-column AND/XOR
// reduction workload: input volume moves to PIM/ISC, or the reduction
// runs in-flash with only the output column shipped to the host.
func reduceStudy(env *Env, op latch.Op, k int, columnBytes, inputBytes, outputBytes int64, pimOps int64) []Breakdown {
	waves := float64(columnBytes) / float64(env.Geo.WaveBytes())
	if waves < 1 {
		waves = 1
	}
	var out []Breakdown

	pimPlan := env.PIM.PlanBulk(op, pimOps, columnBytes, inputBytes)
	b := Breakdown{Scheme: "PIM", OpeMove: pimPlan.MoveSeconds, Bitwise: pimPlan.ComputeSecs}
	b.finish(waves)
	out = append(out, b)

	iscPlan := env.ISC.PlanBulk(op, 1, inputBytes, inputBytes)
	b = Breakdown{Scheme: "ISC", OpeMove: iscPlan.MoveSeconds, Bitwise: iscPlan.ComputeSecs}
	b.finish(waves)
	out = append(out, b)

	resMove := env.Host.BulkSeconds(outputBytes)
	for _, scheme := range []ssd.Scheme{ssd.SchemeReAlloc, ssd.SchemePreAlloc, ssd.SchemeLocFree} {
		plan := mustPlan(ssd.PlanReduce(env.Geo, env.Timing, scheme, op, k, columnBytes))
		b = Breakdown{
			Scheme:    scheme.String(),
			Bitwise:   plan.TotalSeconds,
			ResMove:   resMove,
			ReallocGB: float64(plan.ReallocBytes) / 1e9,
		}
		b.finish(waves)
		out = append(out, b)
	}
	return out
}

// SegmentationStudy is the §5.3.1 workload: AND across the three channel
// class planes. Per the Re(m) formula the PIM/ISC compute uses three AND
// passes.
func SegmentationStudy(env *Env, images int) []Breakdown {
	spec := workload.PaperSegmentation(images)
	k, column := spec.OperandColumns()
	return reduceStudy(env, latch.OpAnd, k, column, spec.InputBytes(), spec.OutputBytes(), 3)
}

// BitmapStudy is the §5.3.2 workload: AND across 30xmonths day columns of
// 800M user bits; only the result column returns to the host.
func BitmapStudy(env *Env, months int) []Breakdown {
	spec := workload.PaperBitmap(months)
	return reduceStudy(env, latch.OpAnd, spec.Days(), spec.ColumnBytes(),
		spec.InputBytes(), spec.OutputBytes(), int64(spec.Days()-1))
}

// EncryptionStudy is the §5.3.3 workload: Cipher = Ori XOR Key. PIM/ISC
// move the originals out, XOR them, and write ciphertext back to storage;
// ParaBit encrypts in place (no host movement). The basic and ReAlloc
// ParaBit schemes coincide: both read the original and program it paired
// with the key image before the XOR sense. LocFree senses the aligned
// original and key directly and programs the ciphertext.
func EncryptionStudy(env *Env, images int) []Breakdown {
	spec := workload.PaperEncryption(images)
	input := spec.InputBytes()
	waves := float64(input) / float64(env.Geo.WaveBytes())
	if waves < 1 {
		waves = 1
	}
	tm := env.Timing
	ps := env.Geo.PageSize

	var out []Breakdown
	pimPlan := env.PIM.PlanBulk(latch.OpXor, 1, input, input)
	b := Breakdown{Scheme: "PIM", OpeMove: pimPlan.MoveSeconds, Bitwise: pimPlan.ComputeSecs,
		ResMove: env.Host.BulkSeconds(input)} // ciphertext written back
	b.finish(waves)
	out = append(out, b)

	iscPlan := env.ISC.PlanBulk(latch.OpXor, 1, input, input)
	b = Breakdown{Scheme: "ISC", OpeMove: iscPlan.MoveSeconds, Bitwise: iscPlan.ComputeSecs,
		ResMove: float64(input) / env.ISC.Link().BytesPerSecond()}
	b.finish(waves)
	out = append(out, b)

	// ParaBit / ParaBit-ReAlloc: per wave, read the original (LSB), pair
	// it with the key image on a fresh wordline, sense the XOR; the
	// ciphertext program overlaps the next wave's reallocation.
	reWave := ssd.ReallocStepLatency(tm, latch.OpXor, 1, ps).Seconds()
	for _, name := range []string{"ParaBit-ReAlloc", "ParaBit"} {
		b = Breakdown{Scheme: name, Bitwise: waves * reWave,
			ReallocGB: float64(input) / 1e9} // logical operand volume rewritten
		b.finish(waves)
		out = append(out, b)
	}

	// LocFree: XOR sense over the aligned original and key, then program
	// the ciphertext — no reallocation.
	lfWave := (senseLatency(tm, env.Geo, latch.SenseLocFreeLSB, latch.OpXor, 2) +
		tm.Transfer(ps) + tm.ProgramPage).Seconds()
	b = Breakdown{Scheme: "ParaBit-LocFree", Bitwise: waves * lfWave}
	b.finish(waves)
	out = append(out, b)
	return out
}

func breakdownResult(name string, rows []Breakdown, notes ...string) Result {
	r := Result{
		Name:   name,
		Header: "scheme\tope-move\tbitwise\tres-move\ttotal\ttotal+pipelined",
		Notes:  notes,
	}
	for _, b := range rows {
		r.Rows = append(r.Rows, []string{
			b.Scheme, secs(b.OpeMove), secs(b.Bitwise), secs(b.ResMove),
			secs(b.Total), secs(b.TotalPipe),
		})
	}
	return r
}

// Fig14a renders the segmentation breakdown at the paper's image counts.
func Fig14a(env *Env) Result {
	var rows []Breakdown
	var notes []string
	for _, n := range []int{10_000, 200_000} {
		for _, b := range SegmentationStudy(env, n) {
			b.Scheme = fmt.Sprintf("%-7d %s", n, b.Scheme)
			rows = append(rows, b)
		}
	}
	full := SegmentationStudy(env, 200_000)
	pimTotal := full[0].Total
	iscTotal := full[1].Total
	notes = append(notes,
		fmt.Sprintf("200k images: ParaBit+Res-Move = %s of PIM (paper 32.3%%), %s of ISC (paper 34.4%%)",
			pct(full[3].TotalPipe/pimTotal), pct(full[3].TotalPipe/iscTotal)),
		fmt.Sprintf("ParaBit AND cost is %s of ParaBit-ReAlloc (paper: reduced by 51.7%%)",
			pct(full[3].Bitwise/full[2].Bitwise)),
	)
	return breakdownResult("Figure 14(a): image segmentation", rows, notes...)
}

// Fig14b renders the bitmap breakdown across months.
func Fig14b(env *Env) Result {
	var rows []Breakdown
	for _, m := range []int{1, 6, 12} {
		for _, b := range BitmapStudy(env, m) {
			b.Scheme = fmt.Sprintf("m=%-2d %s", m, b.Scheme)
			rows = append(rows, b)
		}
	}
	full := BitmapStudy(env, 12)
	notes := []string{
		fmt.Sprintf("m=12: PIM AND %s (paper 353ms), ParaBit-ReAlloc %s (paper 6137ms), ParaBit %s (paper 3179ms)",
			ms(full[0].Bitwise), ms(full[2].Bitwise), ms(full[3].Bitwise)),
		fmt.Sprintf("data movement reduced to %s of PIM's (paper ≈0.3%%)",
			pct(full[3].ResMove/full[0].OpeMove)),
	}
	return breakdownResult("Figure 14(b): bitmap indices", rows, notes...)
}

// Fig14c renders the encryption breakdown across image counts.
func Fig14c(env *Env) Result {
	var rows []Breakdown
	for _, n := range []int{5_000, 100_000} {
		for _, b := range EncryptionStudy(env, n) {
			b.Scheme = fmt.Sprintf("%-6d %s", n, b.Scheme)
			rows = append(rows, b)
		}
	}
	full := EncryptionStudy(env, 100_000)
	notes := []string{
		fmt.Sprintf("100k images: ParaBit-ReAlloc = %s of PIM, %s of ISC (paper 23.3%% / 25.3%%)",
			pct(full[2].Total/full[0].Total), pct(full[2].Total/full[1].Total)),
		fmt.Sprintf("PIM spends %s of its time on XOR (paper <3.5%%)",
			pct(full[0].Bitwise/full[0].Total)),
	}
	return breakdownResult("Figure 14(c): image encryption", rows, notes...)
}

// Fig15 renders the location-free comparison: per-op 8 MB latencies and
// the three case-study totals.
func Fig15(env *Env) Result {
	r := Result{
		Name:   "Figure 15: ParaBit vs ParaBit-ReAlloc vs ParaBit-LocFree",
		Header: "item\tParaBit-ReAlloc\tParaBit\tParaBit-LocFree",
	}
	for _, op := range latch.BinaryOps {
		ra := reallocSingleOp(env.Timing, env.Geo, op).Seconds()
		pb := senseLatency(env.Timing, env.Geo, latch.SensePair, op, 1).Seconds()
		lf := senseLatency(env.Timing, env.Geo, latch.SenseLocFreeLSB, op, 2).Seconds()
		r.Rows = append(r.Rows, []string{"8MB " + op.String(), us(ra), us(pb), us(lf)})
	}
	seg := SegmentationStudy(env, 200_000)
	bm := BitmapStudy(env, 12)
	enc := EncryptionStudy(env, 100_000)
	for _, cs := range []struct {
		name string
		rows []Breakdown
	}{
		{"segmentation total", seg}, {"bitmap total", bm}, {"encryption total", enc},
	} {
		r.Rows = append(r.Rows, []string{
			cs.name,
			secs(cs.rows[2].TotalPipe), secs(cs.rows[3].TotalPipe), secs(cs.rows[4].TotalPipe),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("bitmap: LocFree = %s of ReAlloc, %s of ParaBit (paper 5.23%% / 10.1%%)",
			pct(bm[4].TotalPipe/bm[2].TotalPipe), pct(bm[4].TotalPipe/bm[3].TotalPipe)),
		fmt.Sprintf("encryption: LocFree = %s of ReAlloc (paper 57.1%%)",
			pct(enc[4].TotalPipe/enc[2].TotalPipe)),
	)
	return r
}

// Endurance computes §5.4's effective TBW: the device's 600 TBW rating
// scaled by the share of writes that are host data rather than
// pre-computation reallocation.
func Endurance(env *Env) Result {
	const ratedTBW = 600.0
	r := Result{
		Name:   "§5.4 endurance: effective TBW under exclusive use",
		Header: "workload\thost data\treallocated\teffective TBW\tpaper",
	}
	rows := []struct {
		name    string
		inputGB float64
		realloc float64
		paper   string
	}{}
	bm := BitmapStudy(env, 12)
	bmSpec := workload.PaperBitmap(12)
	rows = append(rows, struct {
		name    string
		inputGB float64
		realloc float64
		paper   string
	}{"bitmap (m=12)", float64(bmSpec.InputBytes()) / 1e9, bm[2].ReallocGB, "200.67"})
	seg := SegmentationStudy(env, 200_000)
	segSpec := workload.PaperSegmentation(200_000)
	rows = append(rows, struct {
		name    string
		inputGB float64
		realloc float64
		paper   string
	}{"segmentation (200k)", float64(segSpec.InputBytes()) / 1e9, seg[2].ReallocGB, "257.51"})
	enc := EncryptionStudy(env, 100_000)
	encSpec := workload.PaperEncryption(100_000)
	rows = append(rows, struct {
		name    string
		inputGB float64
		realloc float64
		paper   string
	}{"encryption (100k)", float64(encSpec.InputBytes()) / 1e9, enc[2].ReallocGB, "300"})
	for _, row := range rows {
		eff := ratedTBW * row.inputGB / (row.inputGB + row.realloc)
		r.Rows = append(r.Rows, []string{
			row.name,
			fmt.Sprintf("%.1fGB", row.inputGB),
			fmt.Sprintf("%.1fGB", row.realloc),
			fmt.Sprintf("%.1f", eff),
			row.paper,
		})
	}
	r.Notes = append(r.Notes, "rated TBW 600 (Samsung 970 PRO 512GB); reallocated volume from the ReAlloc execution")
	return r
}

// CompressionBreakEven finds the compression ratio at which PIM (moving
// compressed data) ties ParaBit-LocFree for the segmentation study.
func CompressionBreakEven(env *Env, images int) float64 {
	seg := SegmentationStudy(env, images)
	pim := seg[0]
	lf := seg[4]
	// PIM(r) = r*move + compute = LocFree total.
	return (lf.TotalPipe - pim.Bitwise) / pim.OpeMove
}

// Compression renders §5.7.
func Compression(env *Env) Result {
	r := Result{
		Name:   "§5.7 compression: break-even ratio where compressed-PIM ties ParaBit-LocFree",
		Header: "workload\tbreak-even\tpaper",
	}
	be := CompressionBreakEven(env, 200_000)
	r.Rows = append(r.Rows, []string{"segmentation (200k)", pct(be), "30.1%"})
	bm := BitmapStudy(env, 12)
	verdict := "LocFree always wins (paper agrees)"
	if bm[4].TotalPipe >= bm[0].Bitwise {
		verdict = "PIM compute alone beats LocFree"
	}
	r.Rows = append(r.Rows, []string{"bitmap (m=12)", verdict, "always wins"})
	r.Notes = append(r.Notes, "bitmap: LocFree total is below PIM's compute time alone, so no compression ratio can rescue PIM")
	return r
}
