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
