package flash

import "fmt"

// Flash-Cosmos multi-wordline sense: the array side of the fourth scheme.
// Where the pairwise senses issue one sense per combine, a SenseMWS
// applies the read voltage to every operand wordline of one block at once
// and lets the NAND string compute the AND/OR fold in a single read
// operation.

// ErrBlockMismatch reports MWS operands that do not share a block: a
// multi-wordline sense selects wordlines of one NAND string, so all
// operands must be colocated in the same block (the FTL's placement job;
// callers fall back to pairwise chains when it fails).
var ErrBlockMismatch = fmt.Errorf("flash: MWS operands not colocated in one block")

// MWSCorruptor is an optional Corruptor extension for the Flash-Cosmos
// reliability model: the error rate of a multi-wordline sense grows with
// the number of selected wordlines (the sense margin divides across the
// series cells) and shrinks when the operands were ESP-programmed.
type MWSCorruptor interface {
	Corruptor
	CorruptMWS(data []byte, peCycles, wlCount int, esp bool) int
}

// corruptMWS routes MWS results through the model's multi-wordline hook
// when it has one, falling back to the single-sense model otherwise.
func (a *Array) corruptMWS(data []byte, pe, wlCount int, esp bool, exposure int) int {
	if a.noise == nil {
		return 0
	}
	if mc, ok := a.noise.(MWSCorruptor); ok {
		return mc.CorruptMWS(data, pe, wlCount, esp)
	}
	return a.corrupt(data, pe, 1, exposure)
}
