package lockorder_test

import (
	"strings"
	"testing"

	"parabit/internal/analysis/analysistest"
	"parabit/internal/analysis/lockorder"
)

func TestOrderingViolationsFlagged(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "orderbad")
}

// TestEdgeReportedAtLowestSite pins the report of an edge two functions
// create to the lower site, whatever order the functions are walked in
// (run it with -count=20 to see it hold).
func TestEdgeReportedAtLowestSite(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "ordertwice")
}

func TestConsistentOrderClean(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "orderok")
}

// TestTwoMutexCyclePinned asserts the acceptance-criterion shape
// directly: the classic AB/BA two-mutex deadlock draws a cycle
// diagnostic naming both classes.
func TestTwoMutexCyclePinned(t *testing.T) {
	diags := analysistest.Diagnostics(t, lockorder.Analyzer, "orderbad")
	for _, d := range diags {
		if strings.Contains(d.Message, "closes a lock-order cycle: A.mu -> B.mu -> A.mu") {
			return
		}
	}
	t.Fatalf("two-mutex cycle not flagged among %d diagnostics", len(diags))
}
