// Package errbad drops device-stack errors on the floor; every call
// statement here that discards an error result must be flagged.
package errbad

import (
	"parabit/internal/ftl"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

func Drop(dev *ssd.Device, f *ftl.FTL, at sim.Time) {
	dev.WriteOperand(0, nil, at)    // want `result of ssd\.WriteOperand is discarded`
	f.Read(0, at)                   // want `result of ftl\.Read is discarded`
	defer dev.Read(0, at)           // want `result of ssd\.Read is discarded`
	go dev.WriteOperand(1, nil, at) // want `result of ssd\.WriteOperand is discarded`
}
