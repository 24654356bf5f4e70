// Self-programmable dataflow (Section III.B): packets carry code that
// reprograms CIM units as they arrive — "the highest level of flexibility
// in programming". The example reconfigures a unit from pass-through to a
// crossbar MVM entirely via a program packet, then shows the security
// inspector (Section IV.A) refusing the same packet under a strict policy.
package main

import (
	"fmt"
	"log"

	"cimrev"
	"cimrev/internal/cim"
	"cimrev/internal/isa"
	"cimrev/internal/packet"
	"cimrev/internal/security"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fabric, err := cimrev.NewFabric(cimrev.DefaultFabricConfig(), cimrev.NewLedger(), nil)
	if err != nil {
		return err
	}
	unit := cimrev.Address{Tile: 0}
	if _, err := fabric.AddUnit(unit, cim.KindCrossbar); err != nil {
		return err
	}

	// The program travels inside the packet: load weights, become an MVM
	// unit, process a first input.
	prog := isa.Program{
		{Op: isa.OpLoadWeights, Unit: unit, Rows: 3, Cols: 2,
			Data: []float64{1, 0, 0, 1, 0.5, -0.5}},
		{Op: isa.OpConfigure, Unit: unit, Fn: isa.FuncMVM},
		{Op: isa.OpStream, Unit: unit, Data: []float64{1, -1, 0.5}},
		{Op: isa.OpHalt},
	}
	fmt.Println("program carried by the packet:")
	fmt.Print(prog.Disassemble())

	code, err := prog.Encode()
	if err != nil {
		return err
	}
	p := &packet.Packet{Dst: unit, Type: packet.TypeProgram, Code: code}
	fmt.Printf("\npacket: %d bytes (%d of them code)\n", p.SizeBytes(), len(p.Code))

	// Ingress inspection, permissive partition: programs allowed.
	permissive := security.NewInspector(security.Policy{AllowPrograms: true})
	if err := permissive.Inspect(p); err != nil {
		return err
	}
	if err := fabric.InjectPacket(p); err != nil {
		return err
	}
	out, err := fabric.Run()
	if err != nil {
		return err
	}
	fmt.Printf("unit reprogrammed in flight; first MVM result: %v\n", firstResult(out[unit]))

	// Subsequent data packets use the new configuration.
	if err := fabric.Stream(unit, []float64{0.5, 0.5, 1.0}); err != nil {
		return err
	}
	out, err = fabric.Run()
	if err != nil {
		return err
	}
	fmt.Printf("follow-up data through the reprogrammed unit: %v\n", firstResult(out[unit]))

	// The same packet at a strict boundary: rejected before it can touch
	// the fabric ("data can be inspected prior ... to entering").
	strict := security.NewInspector(security.Policy{})
	if err := strict.Inspect(p); err != nil {
		fmt.Printf("\nstrict partition boundary: %v\n", err)
	} else {
		return fmt.Errorf("strict inspector admitted a program packet")
	}
	return nil
}

func firstResult(results [][]float64) []float64 {
	if len(results) == 0 {
		return nil
	}
	return results[0]
}
