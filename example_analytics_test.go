package cimrev_test

import (
	"fmt"
	"math/bits"
	"math/rand"

	"cimrev"
	"cimrev/internal/memristor"
	"cimrev/internal/vonneumann"
)

const (
	bitmapEvents = 4096 // rows in the event table
	bitmapWords  = bitmapEvents / 64
)

// Bitmap rows in the engine: one bitmap per predicate.
const (
	rowIsError = iota
	rowIsEdge
	rowLastHour
	rowScratch1
	rowScratch2
	rowCount
)

// In-memory analytics (Table 2 "Data Bases (analytics)" — rated high):
// bitmap-index queries computed inside a ReRAM array (Chen et al.'s
// bulk bitwise AND/OR/XOR) plus TCAM classification, against the cost of a
// CPU scanning the same table from DRAM.
func Example_analytics() {
	if err := analytics(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// in-array query over 4096 events: 22 hits in 84ns / 192pJ
	// CPU bitmap scan:  30.7ns / 1.41uJ (7333x energy)
	// verification: software count = 22, in-array count = 22
	// TCAM route for source 0xab42 -> table entry 1 (3ns / 0.128pJ)
	// TCAM route for source 0xa777 -> table entry 0 (3ns / 0.128pJ)
	// TCAM route for source 0x1234 -> table entry 2 (3ns / 0.128pJ)
	//
	// total in-memory cost: 123ns / 216pJ
}

func analytics() error {
	rng := rand.New(rand.NewSource(99))
	ledger := cimrev.NewLedger()

	eng, err := memristor.NewBitwiseEngine(rowCount, bitmapWords, ledger)
	if err != nil {
		return err
	}

	// Synthesize the event table's bitmap indexes.
	isError := randomBitmap(rng, 0.05)
	isEdge := randomBitmap(rng, 0.4)
	lastHour := randomBitmap(rng, 0.25)
	if err := eng.Store(rowIsError, isError); err != nil {
		return err
	}
	if err := eng.Store(rowIsEdge, isEdge); err != nil {
		return err
	}
	if err := eng.Store(rowLastHour, lastHour); err != nil {
		return err
	}

	// Query: COUNT(*) of errors on edge devices in the last hour.
	if err := eng.And(rowIsError, rowIsEdge, rowScratch1); err != nil {
		return err
	}
	if err := eng.And(rowScratch1, rowLastHour, rowScratch2); err != nil {
		return err
	}
	hits, err := eng.PopCount(rowScratch2)
	if err != nil {
		return err
	}
	cimCost := ledger.Total()
	fmt.Printf("in-array query over %d events: %d hits in %v\n", bitmapEvents, hits, cimCost)

	// The same query as a CPU scan: stream three bitmaps from DRAM and
	// combine them.
	cpuCost, err := cimrev.CPU().Run(vonneumann.Kernel{
		Flops: float64(2 * bitmapEvents), // two logic ops per row
		Bytes: float64(3 * bitmapWords * 8),
	})
	if err != nil {
		return err
	}
	fmt.Printf("CPU bitmap scan:  %v (%.0fx energy)\n",
		cpuCost, cpuCost.EnergyPJ/cimCost.EnergyPJ)

	// Verify against a software evaluation of the same predicate.
	want := 0
	for w := 0; w < bitmapWords; w++ {
		want += bits.OnesCount64(isError[w] & isEdge[w] & lastHour[w])
	}
	fmt.Printf("verification: software count = %d, in-array count = %d\n", want, hits)

	// Classification stage: route each hit's source prefix through a TCAM
	// (the associative half of the Section III.A taxonomy).
	tcam, err := cimrev.NewTCAM(4, 16, ledger)
	if err != nil {
		return err
	}
	// Routing table: site prefixes at /4, /8, and a default route.
	if err := tcam.Store(0, 0xA000, 0xF000); err != nil { // site A
		return err
	}
	if err := tcam.Store(1, 0xAB00, 0xFF00); err != nil { // rack AB
		return err
	}
	if err := tcam.Store(2, 0x0000, 0x0000); err != nil { // default
		return err
	}
	for _, src := range []uint64{0xAB42, 0xA777, 0x1234} {
		route, cost := tcam.LongestPrefixMatch(src)
		fmt.Printf("TCAM route for source %#04x -> table entry %d (%v)\n", src, route, cost)
	}

	fmt.Printf("\ntotal in-memory cost: %v\n", ledger.Total())
	return nil
}

// randomBitmap sets each of the table's bits with probability density.
func randomBitmap(rng *rand.Rand, density float64) []uint64 {
	out := make([]uint64, bitmapWords)
	for w := range out {
		for b := 0; b < 64; b++ {
			if rng.Float64() < density {
				out[w] |= 1 << b
			}
		}
	}
	return out
}
