package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/nn"
)

// ExampleRouter shows how routing policies order engines for a request:
// round-robin rotates by the request's fleet sequence number, and the
// same sequence number always produces the same preference order — a
// replayed trace routes identically.
func ExampleRouter() {
	net, err := nn.NewMLP("example", []int{16, 8}, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64

	f, _, err := fleet.New(cfg, net,
		fleet.WithEngines(3),
		fleet.WithPolicy(fleet.RoundRobin()),
	)
	if err != nil {
		panic(err)
	}
	defer f.Close()

	engines := f.Engines()
	for seq := uint64(0); seq < 4; seq++ {
		order, _ := f.Router().Route(engines, seq)
		ids := make([]int, len(order))
		for i, e := range order {
			ids[i] = e.ID()
		}
		fmt.Printf("request %d tries engines %v\n", seq, ids)
	}
	// Output:
	// request 0 tries engines [0 1 2]
	// request 1 tries engines [1 2 0]
	// request 2 tries engines [2 0 1]
	// request 3 tries engines [0 1 2]
}

// ExampleFleet_SubmitSeq shows the determinism contract: a request keyed
// with the same sequence number returns bit-identical output from a
// 1-engine and a 3-engine fleet — placement never changes results.
func ExampleFleet_SubmitSeq() {
	net, err := nn.NewMLP("example", []int{16, 8}, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	cfg.Crossbar.Functional = false // bit-serial: the mode that draws read noise
	cfg.Crossbar.ReadNoise = 0.02   // analog read noise, counter-keyed

	in := make([]float64, 16)
	for i := range in {
		in[i] = float64(i) / 16
	}

	submit := func(cfg dpe.Config, engines int) []float64 {
		f, _, err := fleet.New(cfg, net, fleet.WithEngines(engines))
		if err != nil {
			panic(err)
		}
		defer f.Close()
		out, _, err := f.SubmitSeq(context.Background(), 42, in)
		if err != nil {
			panic(err)
		}
		return out
	}
	one, three := submit(cfg, 1), submit(cfg, 3)
	quiet := cfg
	quiet.Crossbar.ReadNoise = 0
	fmt.Println("1-engine and 3-engine outputs bit-identical:", slices.Equal(one, three))
	fmt.Println("and the noise is live (output differs from the noise-free one):", !slices.Equal(one, submit(quiet, 1)))
	// Output:
	// 1-engine and 3-engine outputs bit-identical: true
	// and the noise is live (output differs from the noise-free one): true
}
