// Package errok handles or explicitly discards device-stack errors;
// errdrop must stay silent.
package errok

import (
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

func Handled(dev *ssd.Device, at sim.Time) (sim.Time, error) {
	if _, err := dev.WriteOperand(0, nil, at); err != nil {
		return 0, err
	}
	// An explicit blank assignment records that the drop is deliberate.
	_, _, _ = dev.Read(0, at)
	// Calls with no error result are plain statements.
	dev.ResetTiming()
	return dev.WriteOperand(1, nil, at)
}
