package errok

import (
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// Test files are exempt: a dropped error in a test fails the test through
// other assertions, not by desynchronizing production state.
func dropInTest(dev *ssd.Device, at sim.Time) {
	dev.WriteOperand(0, nil, at)
}
