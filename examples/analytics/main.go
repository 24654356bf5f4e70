// In-memory analytics (Table 2 "Data Bases (analytics)" — rated high):
// bitmap-index queries computed inside a ReRAM array (Chen et al.'s
// bulk bitwise AND/OR/XOR) plus TCAM classification, against the cost of a
// CPU scanning the same table from DRAM.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cimrev"
	"cimrev/internal/memristor"
	"cimrev/internal/vonneumann"
)

const (
	events = 4096 // rows in the event table
	words  = events / 64
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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(99))
	ledger := cimrev.NewLedger()

	eng, err := memristor.NewBitwiseEngine(rowCount, words, ledger)
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

	// Query: COUNT(*) WHERE (error AND edge) OR NOT(lastHour)... keep it
	// to pure AND/OR: errors on edge devices in the last hour.
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
	fmt.Printf("in-array query over %d events: %d hits in %v\n", events, hits, cimCost)

	// The same query as a CPU scan: stream three bitmaps from DRAM and
	// combine them.
	cpu := cimrev.CPU()
	scanBytes := float64(3 * words * 8)
	cpuCost, err := cpu.Run(vonneumann.Kernel{
		Flops: float64(2 * events), // two logic ops per row
		Bytes: scanBytes,
	})
	if err != nil {
		return err
	}
	fmt.Printf("CPU bitmap scan:  %v (%.0fx energy)\n",
		cpuCost, cpuCost.EnergyPJ/cimCost.EnergyPJ)

	// Verify against a software evaluation of the same predicate.
	want := 0
	for w := 0; w < words; w++ {
		v := isError[w] & isEdge[w] & lastHour[w]
		for ; v != 0; v &= v - 1 {
			want++
		}
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

func randomBitmap(rng *rand.Rand, density float64) []uint64 {
	out := make([]uint64, words)
	for w := range out {
		for b := 0; b < 64; b++ {
			if rng.Float64() < density {
				out[w] |= 1 << b
			}
		}
	}
	return out
}
