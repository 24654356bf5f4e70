package obs_test

import (
	"fmt"

	"cimrev/internal/energy"
	"cimrev/internal/obs"
)

// ExampleTracer shows the span lifecycle: a root span per driver
// operation, child spans per layer beneath it, each ended with its simulated cost. SumRoots
// totals simulated time over root spans only, so nesting never
// double-counts.
func ExampleTracer() {
	tr := obs.New()

	root := tr.Root("run.infer_batch")
	infer := root.Child("dpe.infer_batch")
	infer.End(energy.Cost{LatencyPS: 100_000, EnergyPJ: 12})
	root.End(energy.Cost{LatencyPS: 102_000, EnergyPJ: 12.5})

	spans := tr.Snapshot()
	fmt.Println("spans recorded:", len(spans))
	fmt.Printf("simulated time: %d ps\n", obs.SumRoots(spans).LatencyPS)
	// Output:
	// spans recorded: 2
	// simulated time: 102000 ps
}
