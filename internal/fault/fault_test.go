package fault

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cimrev/internal/cim"
	"cimrev/internal/isa"
	"cimrev/internal/metrics"
	"cimrev/internal/packet"
)

func addr(tile, unit uint16) packet.Address { return packet.Address{Tile: tile, Unit: unit} }

func TestChecksumSealOpen(t *testing.T) {
	payload := []float64{1.5, -2.25, 3.75}
	sealed := Seal(payload)
	if len(sealed) != 4 {
		t.Fatalf("sealed length = %d, want 4", len(sealed))
	}
	got, err := Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Errorf("payload[%d] = %g, want %g", i, got[i], payload[i])
		}
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	payload := []float64{1, 2, 3}
	sealed := Seal(payload)
	if err := FlipBit(sealed, 1, 17); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(sealed); err == nil {
		t.Error("corrupted payload passed checksum")
	}
}

func TestOpenDetectsChecksumCorruption(t *testing.T) {
	sealed := Seal([]float64{1, 2})
	sealed[len(sealed)-1]++
	if _, err := Open(sealed); err == nil {
		t.Error("corrupted checksum accepted")
	}
	if _, err := Open(nil); err == nil {
		t.Error("empty sealed payload accepted")
	}
}

// TestOpenRejectsMalformedGuards pins the guard-value validation: a
// trailer that cannot be a CRC-32 — NaN, ±Inf, fractional, negative, or
// past uint32 — is reported as corruption explicitly rather than silently
// collapsed by the float-to-uint32 conversion.
func TestOpenRejectsMalformedGuards(t *testing.T) {
	payload := []float64{4, 5, 6}
	for _, bad := range []float64{
		math.NaN(),
		math.Inf(1),
		math.Inf(-1),
		1.5,
		-1,
		float64(math.MaxUint32) + 1,
		1e300,
	} {
		sealed := Seal(payload)
		sealed[len(sealed)-1] = bad
		if _, err := Open(sealed); err == nil {
			t.Errorf("guard %g accepted", bad)
		}
	}
	// Boundary guards that ARE representable must still reach the checksum
	// comparison (and fail there, not in validation).
	for _, edge := range []float64{0, math.MaxUint32} {
		sealed := Seal(payload)
		sealed[len(sealed)-1] = edge
		_, err := Open(sealed)
		if err == nil {
			t.Errorf("wrong guard %g accepted", edge)
		} else if !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("guard %g rejected before checksum comparison: %v", edge, err)
		}
	}
}

// Property: any single bit flip in any data element is detected.
func TestSingleBitFlipAlwaysDetected(t *testing.T) {
	f := func(vals []float64, idxRaw, bitRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		sealed := Seal(vals)
		idx := int(idxRaw) % len(vals)
		bit := uint(bitRaw) % 64
		if err := FlipBit(sealed, idx, bit); err != nil {
			return false
		}
		// A flip that lands on a NaN payload bit pattern may produce the
		// same bits only if the flip is a no-op, which FlipBit never is.
		_, err := Open(sealed)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFlipBitErrors(t *testing.T) {
	p := []float64{1}
	if err := FlipBit(p, 1, 0); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := FlipBit(p, 0, 64); err == nil {
		t.Error("out-of-range bit accepted")
	}
	if err := FlipBit(p, -1, 0); err == nil {
		t.Error("negative index accepted")
	}
}

// pipeline builds src(forward) -> mid(relu) -> sink(accumulate) with a
// configured spare for mid.
func pipeline(t *testing.T) (*cim.Fabric, *Guard, packet.Address, packet.Address, packet.Address, packet.Address) {
	t.Helper()
	cfg := cim.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 16, 16
	fabric, err := cim.NewFabric(cfg, nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	src, mid, spare, sink := addr(0, 0), addr(1, 0), addr(1, 1), addr(2, 0)
	for _, a := range []packet.Address{src, mid, spare, sink} {
		if _, err := fabric.AddUnit(a, cim.KindCompute); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]packet.Address{{src, mid}, {mid, sink}} {
		if err := fabric.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Configure(mid, isa.FuncReLU, nil); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Configure(spare, isa.FuncReLU, nil); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Configure(sink, isa.FuncAccumulate, nil); err != nil {
		t.Fatal(err)
	}
	guard, err := NewGuard(fabric, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.AddSpare(mid, spare); err != nil {
		t.Fatal(err)
	}
	return fabric, guard, src, mid, spare, sink
}

func TestGuardValidation(t *testing.T) {
	if _, err := NewGuard(nil, nil); err == nil {
		t.Error("nil fabric accepted")
	}
	_, guard, _, mid, spare, _ := pipeline(t)
	if err := guard.AddSpare(mid, spare); err == nil {
		t.Error("duplicate spare accepted")
	}
	if err := guard.AddSpare(mid, mid); err == nil {
		t.Error("self-spare accepted")
	}
	if err := guard.AddSpare(addr(9, 9), spare); err == nil {
		t.Error("missing primary accepted")
	}
	if err := guard.AddSpare(spare, addr(9, 9)); err == nil {
		t.Error("missing spare accepted")
	}
	if got, ok := guard.spares[mid]; !ok || got != spare {
		t.Errorf("Spare = %v, %v", got, ok)
	}
}

func TestFailWithoutSpareContains(t *testing.T) {
	fabric, guard, src, _, spare, sink := pipeline(t)
	// Fail the spare itself (no spare-of-spare): containment only.
	recovered, err := guard.Fail(spare)
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Error("recovery reported without a spare")
	}
	// Pipeline through mid still works.
	if err := fabric.Stream(src, []float64{1}); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[sink]) != 1 {
		t.Error("healthy path broken by unrelated failure")
	}
}

func TestFailoverRedirectsStream(t *testing.T) {
	fabric, guard, src, mid, spare, sink := pipeline(t)

	recovered, err := guard.Fail(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("failover did not happen despite spare")
	}
	// The stream now flows src -> spare -> sink.
	if err := fabric.Stream(src, []float64{-3, 4}); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out[sink]
	if len(res) != 1 {
		t.Fatalf("sink results = %d, want 1 (redirected)", len(res))
	}
	if res[0][0] != 0 || res[0][1] != 4 {
		t.Errorf("redirected output = %v, want [0 4] (spare ReLU)", res[0])
	}
	_ = spare
}

func TestFailTwiceRejected(t *testing.T) {
	_, guard, _, mid, _, _ := pipeline(t)
	if _, err := guard.Fail(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := guard.Fail(mid); err == nil {
		t.Error("double failure accepted")
	}
}

func TestFailoverSavesInFlightToken(t *testing.T) {
	// A token still upstream of the failure is saved by the rewiring: it
	// flows through the spare without replay.
	fabric, guard, src, mid, _, sink := pipeline(t)
	if err := guard.StreamHeld(src, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := guard.Fail(mid); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[sink]) != 1 {
		t.Error("upstream token should survive via the spare")
	}
}

func TestHeldReplayAfterUnrecoveredFailure(t *testing.T) {
	// No spare registered: the token dies at the containment boundary.
	// The held copy replays once the operator patches the path around the
	// failed unit.
	fabric, err := cim.NewFabric(cim.DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, mid, spare, sink := addr(0, 0), addr(1, 0), addr(1, 1), addr(2, 0)
	for _, a := range []packet.Address{src, mid, spare, sink} {
		if _, err := fabric.AddUnit(a, cim.KindCompute); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]packet.Address{{src, mid}, {mid, sink}} {
		if err := fabric.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	guard, err := NewGuard(fabric, nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := guard.StreamHeld(src, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if len(guard.held[src]) != 1 {
		t.Fatalf("held streams = %d, want 1", len(guard.held[src]))
	}
	if recovered, err := guard.Fail(mid); err != nil || recovered {
		t.Fatalf("Fail = %v, %v; want contained without recovery", recovered, err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[sink]) != 0 {
		t.Fatal("token crossed the containment boundary")
	}

	// Manual repair: route around the dead unit, then replay held data.
	if err := fabric.Connect(src, spare); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Connect(spare, sink); err != nil {
		t.Fatal(err)
	}
	n, err := guard.Replay(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
	out, err = fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[sink]) != 1 {
		t.Error("replayed stream did not reach the sink")
	}
	guard.Ack(src)
	if len(guard.held[src]) != 0 {
		t.Error("Ack did not clear held streams")
	}
}

func TestReplayNothingHeld(t *testing.T) {
	_, guard, src, _, _, _ := pipeline(t)
	n, err := guard.Replay(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("replayed %d from empty hold", n)
	}
}
