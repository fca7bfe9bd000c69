package faultwrap_test

import (
	"testing"

	"mdrep/internal/analysis/analyzertest"
	"mdrep/internal/analysis/faultwrap"
)

func TestFaultWrap(t *testing.T) {
	analyzertest.Run(t, "testdata", faultwrap.Analyzer, "peer", "rpc", "transport")
}
