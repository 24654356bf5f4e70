package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cimrev/internal/isa"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
)

func TestParseMesh(t *testing.T) {
	w, h, err := parseMesh("8x4")
	if err != nil || w != 8 || h != 4 {
		t.Errorf("parseMesh = %d,%d,%v", w, h, err)
	}
	for _, bad := range []string{"8", "x4", "8x", "axb", "1x2x3"} {
		if _, _, err := parseMesh(bad); err == nil {
			t.Errorf("parseMesh(%q) accepted", bad)
		}
	}
}

func TestParseAddr(t *testing.T) {
	a, err := parseAddr("1/2/3")
	if err != nil {
		t.Fatal(err)
	}
	want := packet.Address{Board: 1, Tile: 2, Unit: 3}
	if a != want {
		t.Errorf("parseAddr = %v, want %v", a, want)
	}
	for _, bad := range []string{"1/2", "a/b/c", "1/2/99999"} {
		if _, err := parseAddr(bad); err == nil {
			t.Errorf("parseAddr(%q) accepted", bad)
		}
	}
}

func TestRound(t *testing.T) {
	got := round([]float64{1.23456, -0.5})
	if got[0] != 1.235 {
		t.Errorf("round = %v", got)
	}
}

func TestRunDemoAndProgram(t *testing.T) {
	if err := run("", "4x4", 2, ""); err != nil {
		t.Errorf("demo run: %v", err)
	}
	// From a program file.
	dir := t.TempDir()
	path := filepath.Join(dir, "p.casm")
	src := "configure 0/0/1 relu\nstream 0/0/1 1,-2\nhalt\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "2x2", 2, ""); err != nil {
		t.Errorf("program run: %v", err)
	}
	// With a failure injection on a unit the demo pipeline does not use.
	if err := run("", "4x4", 2, "0/3/1"); err != nil {
		t.Errorf("failure run: %v", err)
	}
	// Failing a unit the program needs is an error the operator sees.
	if err := run("", "4x4", 2, "0/1/1"); err == nil {
		t.Error("configuring a failed unit should error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "0x0", 1, ""); err == nil {
		t.Error("bad mesh accepted")
	}
	if err := run("/nonexistent/prog.casm", "2x2", 1, ""); err == nil {
		t.Error("missing program accepted")
	}
	if err := run("", "2x2", 1, "bad-addr"); err == nil {
		t.Error("bad fail address accepted")
	}
	if err := run("", "2x2", 1, "0/9/9"); err == nil {
		t.Error("failing a missing unit accepted")
	}
}

// TestShippedPrograms runs the fabric programs under examples/programs:
// pipeline.casm loaded as a static program, selfprogram.casm encoded into a
// program packet that reconfigures its unit in flight.
func TestShippedPrograms(t *testing.T) {
	assemble := func(name string) isa.Program {
		t.Helper()
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := isa.Assemble(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}

	f, err := newBoard(4, 4, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadProgram(assemble("pipeline.casm")); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := out[packet.Address{Tile: 1, Unit: 1}]
	want := [][]float64{{1.37, 0}, {0, 1.621}}
	if len(got) != len(want) {
		t.Fatalf("pipeline.casm: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if r := round(got[i]); r[0] != want[i][0] || r[1] != want[i][1] {
			t.Errorf("pipeline.casm result %d = %v, want %v", i, r, want[i])
		}
	}

	f, err = newBoard(4, 4, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, err := assemble("selfprogram.casm").Encode()
	if err != nil {
		t.Fatal(err)
	}
	unit := packet.Address{Tile: 2}
	if err := f.InjectPacket(&packet.Packet{Dst: unit, Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	if out, err = f.Run(); err != nil {
		t.Fatal(err)
	}
	sig := []float64{0, -2, 2}
	nn.ActSigmoid.Apply(sig)
	if got := out[unit]; len(got) != 1 || !slices.Equal(got[0], sig) {
		t.Errorf("selfprogram.casm packet: %v, want [%v]", got, sig)
	}
}
