package obs_test

import (
	"fmt"

	"cimrev/internal/energy"
	"cimrev/internal/obs"
)

// ExampleTracer shows the span lifecycle: a root span per request, child
// spans per pipeline stage, each ended with its simulated cost. SumRoots
// totals simulated time over root spans only, so nesting never
// double-counts.
func ExampleTracer() {
	tr := obs.New()

	root := tr.Root("serve.request")
	infer := root.Child("dpe.infer")
	infer.End(energy.Cost{LatencyPS: 100_000, EnergyPJ: 12})
	root.End(energy.Cost{LatencyPS: 102_000, EnergyPJ: 12.5})

	spans := tr.Snapshot()
	fmt.Println("spans recorded:", len(spans))
	fmt.Printf("simulated time: %d ps\n", obs.SumRoots(spans).LatencyPS)
	// Output:
	// spans recorded: 2
	// simulated time: 102000 ps
}
