package cimrev_test

import (
	"fmt"
	"math"
	"math/rand"

	"cimrev"
	"cimrev/internal/nn"
	"cimrev/internal/vonneumann"
)

// Quickstart: build a Dot Product Engine, load a small MLP into its
// memristor crossbars, run an inference, and compare the cost against the
// CPU and GPU baselines — the Section VI experiment in miniature.
func Example_quickstart() {
	if err := quickstart(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// loaded "quickstart": 34186 params in 3 crossbars, programmed in 12.8ms / 2.04uJ
	// inference: class 6 (p=0.203) in 1.61us / 15.6nJ
	// max deviation from float32 software reference: 0.0023
	//
	// engine          latency         energy
	// DPE      1.61us / 15.6nJ
	// CPU      2.65us / 109uJ
	// GPU      5.15us / 259uJ
	//
	// DPE vs CPU: 2x latency, 6975x energy
}

func quickstart() error {
	rng := rand.New(rand.NewSource(42))

	// A 256-128-10 classifier, weights held stationary in the arrays.
	net, err := cimrev.NewMLP("quickstart", []int{256, 128, 10}, rng)
	if err != nil {
		return err
	}

	engine, err := cimrev.NewDPE(cimrev.DefaultDPEConfig())
	if err != nil {
		return err
	}
	programCost, err := engine.Load(net)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %q: %d params in %d crossbars, programmed in %v\n",
		net.Name, net.Params(), engine.CrossbarCount(), programCost)

	// One inference through the analog pipeline.
	input := make([]float64, net.InSize())
	for i := range input {
		input[i] = math.Sin(float64(i) / 10)
	}
	out, inferCost, err := engine.Infer(input)
	if err != nil {
		return err
	}
	best := nn.Argmax(out)
	fmt.Printf("inference: class %d (p=%.3f) in %v\n", best, out[best], inferCost)

	// Accuracy check against the software reference.
	ref, err := net.Forward(input)
	if err != nil {
		return err
	}
	var maxErr float64
	for i := range ref {
		if d := math.Abs(out[i] - ref[i]); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("max deviation from float32 software reference: %.4f\n", maxErr)

	// The same work on the Von Neumann baselines.
	k := vonneumann.GEMM(1, 256, 128, 4, 32<<20, false)
	cpuCost, err := cimrev.CPU().Run(k)
	if err != nil {
		return err
	}
	gpuCost, err := cimrev.GPU().Run(k)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-8s %14s %14s\n", "engine", "latency", "energy")
	fmt.Printf("%-8s %14v\n", "DPE", inferCost)
	fmt.Printf("%-8s %14v\n", "CPU", cpuCost)
	fmt.Printf("%-8s %14v\n", "GPU", gpuCost)
	fmt.Printf("\nDPE vs CPU: %.0fx latency, %.0fx energy\n",
		float64(cpuCost.LatencyPS)/float64(inferCost.LatencyPS),
		cpuCost.EnergyPJ/inferCost.EnergyPJ)
	return nil
}
