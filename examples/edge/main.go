// Edge computing (Section II.B): a battery-powered sensor runs deep
// learning inference at the edge, converting raw camera frames into tagged
// metadata — "massively reducing the size to something that can be
// efficiently transferred to the cloud" — inside a strict power budget.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"cimrev"
	"cimrev/internal/vonneumann"
)

const (
	frameSide  = 16 // 16x16 grayscale frames
	classes    = 8
	frameCount = 64
	// powerBudgetW is the device's inference power envelope.
	powerBudgetW = 0.5
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))

	// A small CNN classifier living permanently in the sensor's crossbars.
	net, err := cimrev.NewLeNetStyle("edge-classifier", frameSide, 64, classes, rng)
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
		histogram = make([]int, classes)
	)
	for f := 0; f < frameCount; f++ {
		frame := syntheticFrame(rng, f)
		out, cost, err := engine.Infer(frame)
		if err != nil {
			return fmt.Errorf("frame %d: %w", f, err)
		}
		total = total.Seq(cost)
		best := argmax(out)
		histogram[best]++
		rawBytes += len(frame) // 1 byte/pixel on the wire
		tagBytes += 1 + 2      // class tag + confidence
	}

	fmt.Printf("\nprocessed %d frames in %v\n", frameCount, total)
	fmt.Printf("class histogram: %v\n", histogram)
	fmt.Printf("uplink reduction: %d B raw -> %d B metadata (%.0fx smaller)\n",
		rawBytes, tagBytes, float64(rawBytes)/float64(tagBytes))

	// Average inference power against the battery budget.
	power := total.Power()
	fmt.Printf("average inference power: %.4f W (budget %.2f W)", power, powerBudgetW)
	if power <= powerBudgetW {
		fmt.Println(" — within budget")
	} else {
		fmt.Println(" — OVER BUDGET")
	}

	// The same pipeline on a server CPU for contrast.
	cpu := cimrev.CPU()
	cpuCost, err := cpu.Run(edgeKernel(net.Flops(), net.WeightBytes(4)))
	if err != nil {
		return err
	}
	perFrame := cpuCost.Scale(int64(frameCount))
	fmt.Printf("\nCPU alternative: %v for the same frames (%.0fx more energy)\n",
		perFrame, perFrame.EnergyPJ/total.EnergyPJ)
	return nil
}

func edgeKernel(flops, weightBytes float64) vonneumann.Kernel {
	return vonneumann.Kernel{
		Flops: flops,
		Bytes: weightBytes + 2*frameSide*frameSide,
	}
}

func syntheticFrame(rng *rand.Rand, seed int) []float64 {
	frame := make([]float64, frameSide*frameSide)
	// A blob whose position depends on the frame index, plus noise.
	cx := float64(seed % frameSide)
	cy := float64((seed / 2) % frameSide)
	for y := 0; y < frameSide; y++ {
		for x := 0; x < frameSide; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			frame[y*frameSide+x] = math.Exp(-d/3) + rng.NormFloat64()*0.05
		}
	}
	return frame
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
