package wallclock_test

import (
	"testing"

	"mdrep/internal/analysis/analyzertest"
	"mdrep/internal/analysis/wallclock"
)

func TestWallClock(t *testing.T) {
	analyzertest.Run(t, "testdata", wallclock.Analyzer, "journal", "rpc", "simtool", "sparse")
}
