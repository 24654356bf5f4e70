package experiments

import (
	"fmt"
	"strings"
	"testing"

	"cimrev/internal/parallel"
)

// TestTraceRunBitIdentical: the traced reference workload's SumRoots fold
// must reproduce the untraced total exactly, at every pool width — this
// is the cimbench -trace correctness witness.
func TestTraceRunBitIdentical(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	for _, width := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			parallel.SetWidth(width)
			res, err := TraceRun()
			if err != nil {
				t.Fatal(err)
			}
			if !res.BitIdentical() {
				t.Fatalf("SumRoots %+v != untraced %+v", res.Traced, res.Untraced)
			}
			if res.Dropped != 0 {
				t.Fatalf("tracer dropped %d spans", res.Dropped)
			}
			if len(res.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			out := res.Format()
			for _, want := range []string{"bit-identical: true", "xbar.mvm", "Cost attribution"} {
				if !strings.Contains(out, want) {
					t.Errorf("Format() missing %q", want)
				}
			}
		})
	}
}

// TestObsOverheadRuns: the overhead measurement completes and renders
// its table with every variant measured. Wall-clock numbers are
// host-dependent; the hard overhead guarantees are the allocation
// assertions in internal/crossbar (TestMVMTracingOffZeroAllocs).
func TestObsOverheadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	res, err := ObsOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.MVMUntracedNS <= 0 || res.MVMDisabledNS <= 0 || res.MVMEnabledNS <= 0 {
		t.Fatalf("degenerate MVM timings: %+v", res)
	}
	if res.ServeUntracedNS <= 0 || res.ServeDisabledNS <= 0 {
		t.Fatalf("degenerate serve timings: %+v", res)
	}
	if res.SpansRecorded < res.MVMIters {
		t.Errorf("enabled run recorded %d spans, want >= %d (one root per MVM)",
			res.SpansRecorded, res.MVMIters)
	}
	if !strings.Contains(res.Format(), "mvm disabled") {
		t.Error("Format() missing variant table")
	}
}
