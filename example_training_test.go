package cimrev_test

import (
	"fmt"
	"math/rand"

	"cimrev"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
)

// Training and deployment (Section III.B): train a classifier in software,
// program the trained weights into memristor crossbars, and verify that
// classification accuracy survives the analog pipeline — then retrain and
// hot-swap the model with write-asymmetry hiding.
func Example_training() {
	if err := training(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// training: accuracy 0.45 -> 0.96 (final loss 0.056)
	// deployed to 2 crossbars in 2.4ms / 23nJ
	// analog accuracy: 0.95 (software 0.96) over 160 inferences in 258us / 242nJ
	//
	// model update: 2.4ms / 23nJ stalled vs 2ns / 23nJ with write hiding (1200000x less downtime)
}

func training() error {
	rng := rand.New(rand.NewSource(2024))
	const dim, classes = 12, 4

	// Synthetic sensor-signature dataset, split train/test.
	allIn, allLab, err := cimrev.MakeBlobs(480, classes, dim, 0.3, rng)
	if err != nil {
		return err
	}
	trainIn, trainLab := allIn[:320], allLab[:320]
	testIn, testLab := allIn[320:], allLab[320:]

	net, err := cimrev.NewMLP("classifier", []int{dim, 24, classes}, rng)
	if err != nil {
		return err
	}
	before, err := cimrev.Accuracy(net, testIn, testLab)
	if err != nil {
		return err
	}
	loss, err := cimrev.Train(net, trainIn, trainLab, 25, 0.05, rng)
	if err != nil {
		return err
	}
	after, err := cimrev.Accuracy(net, testIn, testLab)
	if err != nil {
		return err
	}
	fmt.Printf("training: accuracy %.2f -> %.2f (final loss %.3f)\n", before, after, loss)

	// Deploy to the DPE with the honest bit-serial analog pipeline.
	cfg := cimrev.DefaultDPEConfig()
	cfg.Crossbar.Functional = false
	engine, err := cimrev.NewDPE(cfg)
	if err != nil {
		return err
	}
	programCost, err := engine.Load(net)
	if err != nil {
		return err
	}
	fmt.Printf("deployed to %d crossbars in %v\n", engine.CrossbarCount(), programCost)

	correct := 0
	var inferCost cimrev.Cost
	for i, in := range testIn {
		out, cost, err := engine.Infer(in)
		if err != nil {
			return err
		}
		inferCost = inferCost.Seq(cost)
		if nn.Argmax(out) == testLab[i] {
			correct++
		}
	}
	hwAcc := float64(correct) / float64(len(testIn))
	fmt.Printf("analog accuracy: %.2f (software %.2f) over %d inferences in %v\n",
		hwAcc, after, len(testIn), inferCost)

	// Model update in production: retrain briefly, then hot-swap.
	if _, err := cimrev.Train(net, trainIn, trainLab, 5, 0.02, rng); err != nil {
		return err
	}
	stall, err := engine.Load(net)
	if err != nil {
		return err
	}
	hidden := energy.HiddenWrite(stall)
	fmt.Printf("\nmodel update: %v stalled vs %v with write hiding (%.0fx less downtime)\n",
		stall, hidden, float64(stall.LatencyPS)/float64(hidden.LatencyPS))
	return nil
}
