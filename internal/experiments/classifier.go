package experiments

import (
	"math/rand"

	"cimrev/internal/nn"
)

// classifier is the accuracy studies' shared subject: 400 Gaussian blobs in
// 10 dimensions and 4 classes, split 280 for training and 120 held out, and
// a 10-20-4 MLP trained on them for 25 epochs at learning rate 0.05. Each
// study draws everything from its own seed.
type classifier struct {
	net     *nn.Network
	testIn  [][]float64
	testLab []int
	// swAcc is the float network's accuracy on the held-out set.
	swAcc float64
}

// trainClassifier builds and trains the classifier named name from seed.
func trainClassifier(name string, seed int64) (*classifier, error) {
	rng := rand.New(rand.NewSource(seed))
	const dim, classes = 10, 4
	allIn, allLab, err := nn.MakeBlobs(400, classes, dim, 0.3, rng)
	if err != nil {
		return nil, err
	}
	c := &classifier{testIn: allIn[280:], testLab: allLab[280:]}
	c.net, err = nn.NewMLP(name, []int{dim, 20, classes}, rng)
	if err != nil {
		return nil, err
	}
	if _, err := nn.Train(c.net, allIn[:280], allLab[:280], 25, 0.05, rng); err != nil {
		return nil, err
	}
	if c.swAcc, err = nn.Accuracy(c.net, c.testIn, c.testLab); err != nil {
		return nil, err
	}
	return c, nil
}

// accuracy scores a deployment's outputs for the held-out inputs, in order.
func (c *classifier) accuracy(outs [][]float64) float64 {
	correct := 0
	for i, out := range outs {
		if nn.Argmax(out) == c.testLab[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(c.testLab))
}
