// parabit-sim runs a single in-flash bitwise operation on the simulated
// SSD and shows the result, its latency, and — with -explain — the full
// latching-circuit control sequence as the paper's tables print it.
//
// Usage:
//
//	parabit-sim -op XOR -scheme prealloc -x a5a5 -y 0f0f
//	parabit-sim -op AND -explain
//	parabit-sim -op XOR -explain -locfree
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parabit"
	"parabit/internal/latch"
)

func main() {
	opName := flag.String("op", "AND", "operation: AND OR XOR XNOR NAND NOR NOT-LSB NOT-MSB")
	schemeName := flag.String("scheme", "prealloc", "scheme: prealloc, realloc, locfree, fc, or a registry name")
	xHex := flag.String("x", "a5", "first operand bytes (hex, repeated to fill a page)")
	yHex := flag.String("y", "3c", "second operand bytes (hex, repeated to fill a page)")
	explain := flag.Bool("explain", false, "print the latching-circuit control sequence")
	locfreeSeq := flag.Bool("locfree", false, "with -explain: show the location-free sequence")
	persistDir := flag.String("persist", "", "back the device with an on-disk store in this directory (created on first use, recovered afterwards)")
	flag.Parse()

	op, ok := parseOp(*opName)
	if !ok {
		fail("unknown op %q", *opName)
	}

	if *explain {
		lop := latch.Op(op)
		seq := latch.ForOp(lop)
		if *locfreeSeq {
			seq = latch.ForOpLocFree(lop)
		}
		rows := latch.RunSymbolic(seq, true)
		fmt.Print(latch.FormatTable(seq, rows))
		fmt.Printf("SROs: %d (%.0fµs on the modeled MLC flash)\n",
			seq.SROs(), float64(seq.SROs())*25)
		return
	}

	scheme, err := parabit.ParseScheme(*schemeName)
	if err != nil {
		fail("%v", err)
	}

	dev, err := openDevice(*persistDir)
	if err != nil {
		fail("%v", err)
	}
	x, err := fillPage(*xHex, dev.PageSize())
	if err != nil {
		fail("bad -x: %v", err)
	}
	y, err := fillPage(*yHex, dev.PageSize())
	if err != nil {
		fail("bad -y: %v", err)
	}

	switch scheme {
	case parabit.PreAllocated:
		err = dev.WriteOperandPair(0, 1, x, y)
	case parabit.LocationFree:
		err = dev.WriteOperandGroup([]uint64{0, 1}, [][]byte{x, y})
	case parabit.FlashCosmos:
		err = dev.WriteOperandMWSGroup([]uint64{0, 1}, [][]byte{x, y})
	default:
		if err = dev.WriteOperand(0, x); err == nil {
			err = dev.WriteOperand(1, y)
		}
	}
	if err != nil {
		fail("writing operands: %v", err)
	}

	r, err := dev.Bitwise(op, 0, 1, scheme)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("op:      %v (%v scheme)\n", op, scheme)
	fmt.Printf("x[0:8]:  %x\n", x[:8])
	fmt.Printf("y[0:8]:  %x\n", y[:8])
	fmt.Printf("out:     %x\n", r.Data[:8])
	fmt.Printf("latency: %v\n", r.Latency)
	s := dev.Stats()
	fmt.Printf("device:  %d SROs, %d reallocations, %d programs\n",
		s.SROs, s.Reallocations, s.Programs)
	if ps, ok := dev.PersistStats(); ok {
		fmt.Printf("persist: %d journal records (%d bytes), %d snapshots, %d replayed at mount\n",
			ps.JournalRecords, ps.JournalBytes, ps.Snapshots, ps.ReplayedRecords)
	}
	if err := dev.Close(); err != nil {
		fail("closing device: %v", err)
	}
}

// openDevice builds the simulated SSD: in-memory by default, or backed
// by (and, on reuse, recovered from) an on-disk store with -persist.
func openDevice(dir string) (*parabit.Device, error) {
	if dir == "" {
		return parabit.NewDevice(parabit.WithSmallGeometry())
	}
	if _, err := os.Stat(filepath.Join(dir, "CURRENT")); err == nil {
		dev, rec, err := parabit.Open(dir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("recovered %s: %d records replayed, %d in-flight writes discarded, %d torn bytes truncated\n",
			dir, rec.ReplayedRecords, rec.SkippedIntents, rec.TornBytes)
		return dev, nil
	}
	return parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithPersistence(dir))
}

func parseOp(s string) (parabit.Op, bool) {
	for _, op := range parabit.Ops {
		if strings.EqualFold(op.String(), s) {
			return op, true
		}
	}
	return 0, false
}

func fillPage(hexStr string, ps int) ([]byte, error) {
	pattern, err := hex.DecodeString(hexStr)
	if err != nil {
		return nil, err
	}
	if len(pattern) == 0 {
		return nil, fmt.Errorf("empty pattern")
	}
	out := make([]byte, ps)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out, nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
