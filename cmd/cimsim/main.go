// Command cimsim runs a CIM fabric simulation: it builds a board, loads an
// ISA program (from a file or a built-in demo pipeline), streams inputs,
// and reports outputs plus the energy/latency ledger and fabric metrics.
//
// Usage:
//
//	cimsim                          # run the built-in demo pipeline
//	cimsim -prog pipeline.casm      # assemble and run a program
//	cimsim -mesh 8x8 -units 4       # size the board
//	cimsim -fail 0/1/0              # inject a unit failure before running
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cimrev/internal/cim"
	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/metrics"
	"cimrev/internal/packet"
)

func main() {
	progPath := flag.String("prog", "", "path to a .casm assembly program (empty runs the demo)")
	mesh := flag.String("mesh", "4x4", "board mesh dimensions WxH")
	units := flag.Int("units", 2, "units per tile to pre-create")
	failAddr := flag.String("fail", "", "unit address board/tile/unit to fail before running")
	flag.Parse()

	if err := run(*progPath, *mesh, *units, *failAddr); err != nil {
		fmt.Fprintln(os.Stderr, "cimsim:", err)
		os.Exit(1)
	}
}

func run(progPath, mesh string, unitsPerTile int, failAddr string) error {
	w, h, err := parseMesh(mesh)
	if err != nil {
		return err
	}
	ledger := energy.NewLedger()
	reg := metrics.NewRegistry()
	fabric, err := newBoard(w, h, unitsPerTile, ledger, reg)
	if err != nil {
		return err
	}
	fmt.Printf("fabric: %dx%d mesh, %d units\n", w, h, w*h*unitsPerTile)

	var prog isa.Program
	if progPath != "" {
		src, err := os.ReadFile(progPath)
		if err != nil {
			return err
		}
		prog, err = isa.Assemble(string(src))
		if err != nil {
			return err
		}
	} else {
		prog = demoProgram()
		fmt.Println("running built-in demo pipeline:")
		fmt.Print(prog.Disassemble())
	}

	if failAddr != "" {
		addr, err := packet.ParseAddress(failAddr)
		if err != nil {
			return err
		}
		if err := fabric.DisableUnit(addr); err != nil {
			return err
		}
		fmt.Printf("failed unit %v before execution\n", addr)
	}

	if err := fabric.LoadProgram(prog); err != nil {
		return err
	}
	out, err := fabric.Run()
	if err != nil {
		return err
	}

	fmt.Println("\noutputs:")
	addrs := make([]packet.Address, 0, len(out))
	for a := range out {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Tile != addrs[j].Tile {
			return addrs[i].Tile < addrs[j].Tile
		}
		return addrs[i].Unit < addrs[j].Unit
	})
	for _, a := range addrs {
		for _, vec := range out[a] {
			fmt.Printf("  %v: %v\n", a, round(vec))
		}
	}

	fmt.Println("\ncost ledger:")
	fmt.Print(ledger.Report())
	fmt.Println("metrics:")
	fmt.Print(reg.Snapshot())
	return nil
}

// newBoard builds a functional-mode w x h board with a heterogeneous
// population: unit 0 of each tile is a crossbar unit, the rest digital
// compute.
func newBoard(w, h, unitsPerTile int, ledger *energy.Ledger, reg *metrics.Registry) (*cim.Fabric, error) {
	cfg := cim.DefaultConfig()
	cfg.MeshW, cfg.MeshH = w, h
	cfg.Crossbar.Functional = true
	fabric, err := cim.NewFabric(cfg, ledger, reg)
	if err != nil {
		return nil, err
	}
	for tile := 0; tile < w*h; tile++ {
		for u := 0; u < unitsPerTile; u++ {
			kind := cim.KindCompute
			if u == 0 {
				kind = cim.KindCrossbar
			}
			addr := packet.Address{Tile: uint16(tile), Unit: uint16(u)}
			if _, err := fabric.AddUnit(addr, kind); err != nil {
				return nil, err
			}
		}
	}
	return fabric, nil
}

// demoProgram builds MVM -> relu across two tiles and streams two inputs.
func demoProgram() isa.Program {
	u0 := packet.Address{Tile: 0, Unit: 0}
	u1 := packet.Address{Tile: 1, Unit: 1}
	return isa.Program{
		{Op: isa.OpLoadWeights, Unit: u0, Rows: 3, Cols: 2,
			Data: []float64{1, -1, 0.5, 0.5, -0.25, 1}},
		{Op: isa.OpConfigure, Unit: u0, Fn: isa.FuncMVM},
		{Op: isa.OpConfigure, Unit: u1, Fn: isa.FuncReLU},
		{Op: isa.OpConnect, Unit: u0, Unit2: u1},
		{Op: isa.OpStream, Unit: u0, Data: []float64{1, 0.5, -0.5}},
		{Op: isa.OpStream, Unit: u0, Data: []float64{-1, 1, 0.25}},
		{Op: isa.OpHalt},
	}
}

func parseMesh(s string) (int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("mesh %q must be WxH", s)
	}
	w, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("mesh width: %w", err)
	}
	h, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("mesh height: %w", err)
	}
	return w, h, nil
}

func round(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
