package flash

import (
	"errors"
	"fmt"
	"testing"
)

// TestFaultClassifiersNilAllocFree pins that classifying a nil error —
// what every successful command passes through — allocates nothing.
func TestFaultClassifiersNilAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if IsTransientFault(nil) || IsProgramFault(nil) || IsPowerCut(nil) {
			t.Fatal("nil error classified as a fault")
		}
	}); n != 0 {
		t.Fatalf("classifying a nil error allocates %v times", n)
	}
}

func TestAsFaultErrorUnwraps(t *testing.T) {
	fe := &FaultError{Op: FaultProgram, Kind: FaultPlaneTransient, Block: 3}
	wrapped := fmt.Errorf("ftl: write: %w", fe)
	if got := AsFaultError(wrapped); got != fe {
		t.Fatalf("AsFaultError(wrapped) = %v, want %v", got, fe)
	}
	if !IsTransientFault(wrapped) {
		t.Fatal("wrapped transient fault not classified transient")
	}
	if AsFaultError(errors.New("plain")) != nil {
		t.Fatal("plain error unwrapped to a fault")
	}
}
