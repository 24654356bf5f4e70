package cimrev_test

import (
	"fmt"

	"cimrev"
	"cimrev/internal/cim"
	"cimrev/internal/fault"
	"cimrev/internal/isa"
	"cimrev/internal/packet"
	"cimrev/internal/security"
)

// Self-programmable dataflow (Section III.B): packets carry code that
// reprograms CIM units as they arrive — "the highest level of flexibility
// in programming". The example reconfigures a unit from pass-through to a
// crossbar MVM entirely via a program packet, then shows the security
// inspector (Section IV.A) refusing the same packet under a strict policy.
func Example_selfProgramming() {
	if err := selfProgramming(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// program carried by the packet:
	// loadweights 0/0/0 3 2 1,0,0,1,0.5,-0.5
	// configure 0/0/0 mvm
	// stream 0/0/0 1,-1,0.5
	// halt
	//
	// packet: 195 bytes (164 of them code)
	// unit reprogrammed in flight; first MVM result: [1.2529680439649908 -1.2411572019811388]
	// follow-up data through the reprogrammed unit: [0.992149263857792 -0.0010111947893340911]
	//
	// strict partition boundary: security: program packets not allowed
}

func selfProgramming() error {
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

// Fault tolerance (Section V.A): a CIM pipeline survives a unit failure by
// stream redirection to a redundant unit, held-data replay recovers work
// in flight, and checksum "extra bits" catch silent corruption at a
// component boundary.
func Example_faultTolerance() {
	if err := faultTolerance(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// healthy run: 4 results at sink, accumulated [2]
	// detection: corrupted packet rejected (fault: checksum mismatch (got 0x8f4daec5, want 0xf8ac9b5a))
	// failure injected at 0/1/0; recovered via spare: true
	// post-failover run: 4/4 results delivered through the spare
	//
	// metrics: 1 faults injected, 1 recovered, 1 units failed
	//
	// Table 1 row confirmed: in-memory failure tolerance = "stream
	// redirection to redundant unit" — zero work lost.
}

func faultTolerance() error {
	reg := cimrev.NewRegistry()
	fabric, err := cimrev.NewFabric(cimrev.DefaultFabricConfig(), cimrev.NewLedger(), reg)
	if err != nil {
		return err
	}

	// Pipeline: ingest -> filter (ReLU) -> aggregate, plus a hot spare
	// for the filter stage.
	var (
		ingest = cimrev.Address{Tile: 0}
		filter = cimrev.Address{Tile: 1}
		spare  = cimrev.Address{Tile: 1, Unit: 1}
		sink   = cimrev.Address{Tile: 2}
	)
	for _, a := range []cimrev.Address{ingest, filter, spare, sink} {
		if _, err := fabric.AddUnit(a, cim.KindCompute); err != nil {
			return err
		}
	}
	if err := fabric.Configure(filter, isa.FuncReLU, nil); err != nil {
		return err
	}
	if err := fabric.Configure(spare, isa.FuncReLU, nil); err != nil {
		return err
	}
	if err := fabric.Configure(sink, isa.FuncAccumulate, nil); err != nil {
		return err
	}
	if err := fabric.Connect(ingest, filter); err != nil {
		return err
	}
	if err := fabric.Connect(filter, sink); err != nil {
		return err
	}

	guard, err := cimrev.NewGuard(fabric, reg)
	if err != nil {
		return err
	}
	if err := guard.AddSpare(filter, spare); err != nil {
		return err
	}

	// Normal operation.
	for i := 0; i < 4; i++ {
		if err := guard.StreamHeld(ingest, []float64{float64(i) - 1.5}); err != nil {
			return err
		}
	}
	out, err := fabric.Run()
	if err != nil {
		return err
	}
	fmt.Printf("healthy run: %d results at sink, accumulated %v\n",
		len(out[sink]), last(out[sink]))
	guard.Ack(ingest)

	// Detection: a bit flip in a sealed payload is caught at the boundary.
	sealed := fault.Seal([]float64{1.0, 2.0, 3.0})
	if err := fault.FlipBit(sealed, 1, 23); err != nil {
		return err
	}
	if _, err := fault.Open(sealed); err != nil {
		fmt.Printf("detection: corrupted packet rejected (%v)\n", err)
	} else {
		return fmt.Errorf("corruption went undetected")
	}

	// Failure + recovery: kill the filter mid-stream; the spare takes
	// over and the redirected stream still completes.
	for i := 0; i < 4; i++ {
		if err := guard.StreamHeld(ingest, []float64{float64(i) + 10}); err != nil {
			return err
		}
	}
	recovered, err := guard.Fail(filter)
	if err != nil {
		return err
	}
	fmt.Printf("failure injected at %v; recovered via spare: %v\n", filter, recovered)
	out, err = fabric.Run()
	if err != nil {
		return err
	}
	fmt.Printf("post-failover run: %d/%d results delivered through the spare\n",
		len(out[sink]), 4)

	snap := reg.Snapshot()
	fmt.Printf("\nmetrics: %d faults injected, %d recovered, %d units failed\n",
		snap.Counters["fault.injected"], snap.Counters["fault.recovered"],
		snap.Counters["fabric.failures"])
	fmt.Println("\nTable 1 row confirmed: in-memory failure tolerance = \"stream")
	fmt.Println("redirection to redundant unit\" — zero work lost.")
	return nil
}

func last(results [][]float64) []float64 {
	if len(results) == 0 {
		return nil
	}
	return results[len(results)-1]
}
