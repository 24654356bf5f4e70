package cimrev_test

import (
	"fmt"
	"math"
	"math/rand"

	"cimrev"
	"cimrev/internal/nn"
	"cimrev/internal/vonneumann"
)

const (
	edgeFrameSide = 16 // 16x16 grayscale frames
	edgeClasses   = 8
	edgeFrames    = 64
	// edgePowerBudgetW is the device's inference power envelope.
	edgePowerBudgetW = 0.5
)

// Edge computing (Section II.B): a battery-powered sensor runs deep
// learning inference at the edge, converting raw camera frames into tagged
// metadata — "massively reducing the size to something that can be
// efficiently transferred to the cloud" — inside a strict power budget.
func Example_edge() {
	if err := edge(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// edge classifier: 33432 params in 9 crossbar arrays
	//
	// processed 64 frames in 3.4ms / 8.06uJ
	// class histogram: [13 20 0 1 19 9 2 0]
	// uplink reduction: 16384 B raw -> 192 B metadata (85x smaller)
	// average inference power: 0.0024 W (budget 0.50 W) — within budget
	//
	// CPU alternative: 172us / 7.1mJ for the same frames (881x more energy)
}

func edge() error {
	rng := rand.New(rand.NewSource(7))

	// A small CNN classifier living permanently in the sensor's crossbars.
	net, err := cimrev.NewLeNetStyle("edge-classifier", edgeFrameSide, 64, edgeClasses, rng)
	if err != nil {
		return err
	}
	engine, err := cimrev.NewDPE(cimrev.DefaultDPEConfig())
	if err != nil {
		return err
	}
	if _, err := engine.Load(net); err != nil {
		return err
	}
	fmt.Printf("edge classifier: %d params in %d crossbar arrays\n",
		net.Params(), engine.CrossbarCount())

	// Stream synthetic camera frames through the classifier.
	var (
		total     cimrev.Cost
		rawBytes  int
		tagBytes  int
		histogram = make([]int, edgeClasses)
	)
	for f := 0; f < edgeFrames; f++ {
		frame := syntheticFrame(rng, f)
		out, cost, err := engine.Infer(frame)
		if err != nil {
			return fmt.Errorf("frame %d: %w", f, err)
		}
		total = total.Seq(cost)
		histogram[nn.Argmax(out)]++
		rawBytes += len(frame) // 1 byte/pixel on the wire
		tagBytes += 1 + 2      // class tag + confidence
	}

	fmt.Printf("\nprocessed %d frames in %v\n", edgeFrames, total)
	fmt.Printf("class histogram: %v\n", histogram)
	fmt.Printf("uplink reduction: %d B raw -> %d B metadata (%.0fx smaller)\n",
		rawBytes, tagBytes, float64(rawBytes)/float64(tagBytes))

	// Average inference power against the battery budget.
	power := total.Power()
	fmt.Printf("average inference power: %.4f W (budget %.2f W)", power, edgePowerBudgetW)
	if power <= edgePowerBudgetW {
		fmt.Println(" — within budget")
	} else {
		fmt.Println(" — OVER BUDGET")
	}

	// The same pipeline on a server CPU for contrast.
	cpuCost, err := cimrev.CPU().Run(vonneumann.Kernel{
		Flops: net.Flops(),
		Bytes: net.WeightBytes(4) + 2*edgeFrameSide*edgeFrameSide,
	})
	if err != nil {
		return err
	}
	perFrame := cpuCost.Scale(int64(edgeFrames))
	fmt.Printf("\nCPU alternative: %v for the same frames (%.0fx more energy)\n",
		perFrame, perFrame.EnergyPJ/total.EnergyPJ)
	return nil
}

// syntheticFrame is a blob whose position depends on the frame index,
// plus noise.
func syntheticFrame(rng *rand.Rand, seed int) []float64 {
	frame := make([]float64, edgeFrameSide*edgeFrameSide)
	cx := float64(seed % edgeFrameSide)
	cy := float64((seed / 2) % edgeFrameSide)
	for y := 0; y < edgeFrameSide; y++ {
		for x := 0; x < edgeFrameSide; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			frame[y*edgeFrameSide+x] = math.Exp(-d/3) + rng.NormFloat64()*0.05
		}
	}
	return frame
}
