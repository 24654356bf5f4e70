package workloadgen

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDriveClosedLoop: every sequence number arrives exactly once, the
// report counts add up, and lateness stays empty (a closed loop has no
// schedule to slip).
func TestDriveClosedLoop(t *testing.T) {
	const n = 500
	var mu sync.Mutex
	seen := make(map[uint64]int, n)
	rep, err := Drive(DriveConfig{Requests: n, Clients: 8}, func(r Request) (Outcome, error) {
		mu.Lock()
		seen[r.Seq]++
		mu.Unlock()
		if r.Class.Name != "default" {
			t.Errorf("mix-less drive class %q, want default", r.Class.Name)
		}
		if r.Lateness != 0 || r.Scheduled != 0 {
			t.Errorf("closed-loop request carries schedule fields: %+v", r)
		}
		return OK, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct seqs, want %d", len(seen), n)
	}
	for seq, k := range seen {
		if k != 1 {
			t.Fatalf("seq %d submitted %d times", seq, k)
		}
	}
	if rep.OKs != n || rep.Sheds != 0 || rep.Drops != 0 {
		t.Errorf("report %+v, want %d OKs and nothing else", rep, n)
	}
	if rep.Lateness.Count != 0 {
		t.Errorf("closed loop observed %d lateness samples", rep.Lateness.Count)
	}
	if rep.Latency.Count != n {
		t.Errorf("latency count %d, want %d", rep.Latency.Count, n)
	}
	if rep.OfferedRPS != 0 {
		t.Errorf("closed loop reports offered rate %g", rep.OfferedRPS)
	}
}

// TestDriveClosedLoopRetriesShed: a closed-loop client retries a Shed
// request until it lands; the retry count and the final OK are both
// reported.
func TestDriveClosedLoopRetriesShed(t *testing.T) {
	var calls atomic.Int64
	rep, err := Drive(DriveConfig{Requests: 1, Clients: 1, RetryBackoff: time.Microsecond},
		func(r Request) (Outcome, error) {
			if calls.Add(1) <= 3 {
				return Shed, nil
			}
			return OK, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OKs != 1 || rep.Sheds != 3 || rep.Retries != 3 {
		t.Errorf("report OKs=%d Sheds=%d Retries=%d, want 1/3/3", rep.OKs, rep.Sheds, rep.Retries)
	}
}

// TestDriveOpenLoopNeverRetries: the open-loop driver counts a Shed and
// moves on — the schedule does not wait — and Drops are never retried in
// either mode.
func TestDriveOpenLoopNeverRetries(t *testing.T) {
	a, err := NewPoisson(81, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var calls atomic.Int64
	rep, err := Drive(DriveConfig{Arrivals: a, Requests: n}, func(r Request) (Outcome, error) {
		switch calls.Add(1) % 3 {
		case 0:
			return Shed, nil
		case 1:
			return Drop, nil
		default:
			return OK, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("submit called %d times, want exactly %d (no retries)", got, n)
	}
	if rep.OKs+rep.Sheds+rep.Drops != n {
		t.Errorf("outcomes %d+%d+%d do not cover %d requests", rep.OKs, rep.Sheds, rep.Drops, n)
	}
	if rep.Retries != 0 {
		t.Errorf("open loop retried %d times", rep.Retries)
	}
	if rep.Lateness.Count != n {
		t.Errorf("lateness count %d, want one sample per fired request", rep.Lateness.Count)
	}
	if rep.OfferedRPS != 50_000 {
		t.Errorf("offered rate %g, want 50000", rep.OfferedRPS)
	}
}

// TestDriveOpenLoopDoesNotSelfThrottle: with a backend that stalls every
// request far longer than the mean gap, the open-loop driver still fires
// the whole schedule on time — requests pile up in flight instead of
// slowing the arrival train (the anti-coordinated-omission property),
// and PeakInFlight records the pile-up.
func TestDriveOpenLoopDoesNotSelfThrottle(t *testing.T) {
	const n, rate = 200, 20_000 // 10ms of schedule
	a, err := NewPoisson(82, rate)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	release := make(chan struct{})
	rep, err := Drive(DriveConfig{Arrivals: a, Requests: n}, func(r Request) (Outcome, error) {
		if fired.Add(1) == n {
			close(release) // last scheduled request has fired; let them all finish
		}
		<-release
		return OK, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OKs != n {
		t.Fatalf("OKs = %d, want %d", rep.OKs, n)
	}
	// All n requests were in flight at once only because the driver kept
	// firing on schedule while the backend stalled.
	if rep.PeakInFlight != n {
		t.Errorf("peak in-flight %d, want %d (driver must not self-throttle)", rep.PeakInFlight, n)
	}
}

// TestDriveFatalStops: a Fatal outcome aborts the run, reports the
// submission's error, and stops issuing new requests.
func TestDriveFatalStops(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := Drive(DriveConfig{Requests: 1000, Clients: 4}, func(r Request) (Outcome, error) {
		calls.Add(1)
		return Fatal, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := calls.Load(); got > 100 {
		t.Errorf("fatal outcome did not stop the drive: %d calls", got)
	}
}

// TestDriveMixClasses: the drive hands each request the class the mix
// picks for its sequence number.
func TestDriveMixClasses(t *testing.T) {
	mix := DefaultMix(9)
	const n = 256
	var mu sync.Mutex
	got := make(map[uint64]string, n)
	_, err := Drive(DriveConfig{Requests: n, Clients: 4, Mix: mix}, func(r Request) (Outcome, error) {
		mu.Lock()
		got[r.Seq] = r.Class.Name
		mu.Unlock()
		return OK, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < n; seq++ {
		if got[seq] != mix.Pick(seq).Name {
			t.Fatalf("seq %d class %q, want %q", seq, got[seq], mix.Pick(seq).Name)
		}
	}
}

// TestElementKeysDistinct: over a drive of the default mix no two
// (request, element) pairs share a noise key. (The rule "seq for batch 1,
// seq*8 + j for batch k" gave request 8 and element 0 of request 1 the
// same stream.)
func TestElementKeysDistinct(t *testing.T) {
	mix := DefaultMix(1)
	seen := make(map[uint64]uint64)
	for seq := uint64(0); seq < 4096; seq++ {
		req := Request{Seq: seq, Class: mix.Pick(seq)}
		for j := 0; j < req.Class.Batch; j++ {
			key := req.ElementKey(j)
			if prev, dup := seen[key]; dup {
				t.Fatalf("requests %d and %d share noise key %d", prev, seq, key)
			}
			seen[key] = seq
		}
	}
}

// TestFanoutWorstOutcomeWins: a batch-k request issues k elements and
// reports the worst element's outcome and error; batch 1 is one call.
func TestFanoutWorstOutcomeWins(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	out, err := Fanout(Request{Class: Class{Batch: 4}}, func(j int) (Outcome, error) {
		calls.Add(1)
		switch j {
		case 1:
			return Shed, nil
		case 2:
			return Fatal, boom
		}
		return OK, nil
	})
	if out != Fatal || err != boom || calls.Load() != 4 {
		t.Errorf("Fanout = (%v, %v) after %d calls, want (fatal, boom) after 4", out, err, calls.Load())
	}
	out, err = Fanout(Request{Class: Class{Batch: 1}}, func(j int) (Outcome, error) { return Drop, nil })
	if out != Drop || err != nil {
		t.Errorf("batch-1 Fanout = (%v, %v), want (drop, nil)", out, err)
	}
}

// TestDriveConfigValidation: degenerate drives are rejected.
func TestDriveConfigValidation(t *testing.T) {
	ok := func(Request) (Outcome, error) { return OK, nil }
	if _, err := Drive(DriveConfig{Requests: 0, Clients: 1}, ok); err == nil {
		t.Error("requests 0 accepted")
	}
	if _, err := Drive(DriveConfig{Requests: 1, Clients: 0}, ok); err == nil {
		t.Error("closed loop with 0 clients accepted")
	}
}
