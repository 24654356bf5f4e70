package workloadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/metrics"
)

// Request is one unit of offered load handed to a SubmitFunc.
type Request struct {
	// Seq is the request's global sequence number — the noise key for
	// keyed submission (fleet.SubmitSeq) and the arrival index in the
	// schedule.
	Seq uint64
	// Class is the request's traffic class (the implicit batch-1 class
	// when the drive has no mix).
	Class Class
	// Scheduled is the request's intended fire time as an offset from
	// the start of the run (0 in closed-loop mode, where there is no
	// schedule).
	Scheduled time.Duration
	// Lateness is how far behind schedule the request actually fired —
	// scheduler slip, not service time. An open-loop driver that cannot
	// keep its own schedule is overloaded before the backend even
	// answers; lateness makes that visible separately from latency.
	Lateness time.Duration
}

// ElementKey is the noise key of element j of the request's class batch
// (0 <= j < Class.Batch): distinct for every (request, element) of a drive
// because Class.Validate bounds Batch by MaxClassBatch.
func (r Request) ElementKey(j int) uint64 { return r.Seq*MaxClassBatch + uint64(j) }

// Outcome classifies one submission attempt.
type Outcome int

const (
	// OK: the request was served.
	OK Outcome = iota
	// Shed: the backend refused the request for capacity (backpressure,
	// limiter). Closed-loop drives back off and retry — a closed-loop
	// client has nothing else to do; open-loop drives count it and move
	// on — the schedule does not wait for the backend to recover.
	Shed
	// Drop: the request was refused for a non-capacity reason (health,
	// deadline, brownout) and must not be retried.
	Drop
	// Fatal: the run is broken; the drive stops issuing and reports the
	// submission's error.
	Fatal
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Shed:
		return "shed"
	case Drop:
		return "drop"
	case Fatal:
		return "fatal"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// SubmitFunc submits one request to the backend and classifies the
// result. The error is reported only for Fatal outcomes. SubmitFunc must
// be safe for concurrent calls.
type SubmitFunc func(Request) (Outcome, error)

// Fanout submits a request's class batch through one: a Class.Batch of k
// issues k concurrent submissions and the worst element outcome wins
// (Fatal > Drop > Shed > OK).
func Fanout(req Request, one func(element int) (Outcome, error)) (Outcome, error) {
	batch := req.Class.Batch
	if batch <= 1 {
		return one(0)
	}
	outcomes := make([]Outcome, batch)
	errs := make([]error, batch)
	var wg sync.WaitGroup
	for j := 0; j < batch; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			outcomes[j], errs[j] = one(j)
		}(j)
	}
	wg.Wait()
	worst, werr := OK, error(nil)
	for j, out := range outcomes {
		if out > worst {
			worst, werr = out, errs[j]
		}
	}
	return worst, werr
}

// DriveConfig configures one load-generation run.
type DriveConfig struct {
	// Arrivals selects open-loop mode: requests fire on the process's
	// schedule whether or not the backend keeps up. Nil selects
	// closed-loop mode: Clients workers each issue their next request
	// the moment the previous one returns.
	Arrivals Arrivals
	// Mix assigns request classes; nil gives every request the implicit
	// batch-1 class.
	Mix Picker
	// Requests is the total number of requests to issue (>= 1).
	Requests int
	// Clients is the closed-loop concurrency (>= 1 when Arrivals is
	// nil; ignored in open-loop mode, where concurrency is however many
	// requests are in flight at once — that is the point).
	Clients int
	// RetryBackoff is the closed-loop pause before retrying a Shed
	// request. Default 50us.
	RetryBackoff time.Duration
}

// validate fails fast on degenerate parameters.
func (c DriveConfig) validate() error {
	switch {
	case c.Requests < 1:
		return fmt.Errorf("workloadgen: drive needs requests >= 1, got %d", c.Requests)
	case c.Arrivals == nil && c.Clients < 1:
		return fmt.Errorf("workloadgen: closed-loop drive needs clients >= 1, got %d", c.Clients)
	}
	return nil
}

// Report is what one drive measured.
type Report struct {
	// Requests is the offered request count; OKs completed, Sheds were
	// refused for capacity (and, open loop, never retried), Drops were
	// refused for health/deadline reasons, Retries counts closed-loop
	// re-submissions after a Shed.
	Requests int
	OKs      int64
	Sheds    int64
	Drops    int64
	Retries  int64
	// Wall is issue-to-drain wall time of the whole run.
	Wall time.Duration
	// OfferedRPS is the schedule's nominal rate (open loop; 0 closed —
	// a closed loop has no offered rate, which is exactly its blind
	// spot). AchievedRPS is OKs divided by Wall.
	OfferedRPS  float64
	AchievedRPS float64
	// Latency is the client-observed service latency of OK requests —
	// submit to answer, queueing included.
	Latency metrics.HistogramSnapshot
	// Lateness is the open-loop schedule slip of every fired request.
	// Growing lateness means the scheduler itself cannot keep up
	// (extreme overload); zero in closed-loop mode.
	Lateness metrics.HistogramSnapshot
	// PeakInFlight is the maximum number of concurrently outstanding
	// requests observed — the open-loop queue-growth witness.
	PeakInFlight int64
}

// Drive issues cfg.Requests requests at submit and returns the
// measurements. The schedule (arrival times and classes) is a pure
// function of the process and mix seeds; only the wall-clock outcomes
// depend on the host.
func Drive(cfg DriveConfig, submit SubmitFunc) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Microsecond
	}
	d := &driver{cfg: cfg, submit: submit, latency: metrics.NewHistogram(), lateness: metrics.NewHistogram()}
	start := time.Now()
	if cfg.Arrivals != nil {
		d.runOpen(start)
	} else {
		d.runClosed()
	}
	wall := time.Since(start)

	rep := Report{
		Requests:     cfg.Requests,
		OKs:          d.oks.Load(),
		Sheds:        d.sheds.Load(),
		Drops:        d.drops.Load(),
		Retries:      d.retries.Load(),
		Wall:         wall,
		Latency:      d.latency.Snapshot(),
		Lateness:     d.lateness.Snapshot(),
		PeakInFlight: d.peak.Load(),
	}
	if cfg.Arrivals != nil {
		rep.OfferedRPS = cfg.Arrivals.Rate()
	}
	if wall > 0 {
		rep.AchievedRPS = float64(rep.OKs) / wall.Seconds()
	}
	if err, ok := d.firstErr.Load().(error); ok && err != nil {
		return rep, err
	}
	return rep, nil
}

// driver carries one drive's shared state.
type driver struct {
	cfg    DriveConfig
	submit SubmitFunc

	oks, sheds, drops, retries atomic.Int64
	inflight, peak             atomic.Int64
	firstErr                   atomic.Value
	latency, lateness          *metrics.Histogram
}

// request builds the Request for sequence seq.
func (d *driver) request(seq uint64, scheduled, lateness time.Duration) Request {
	class := singleClass
	if d.cfg.Mix != nil {
		class = d.cfg.Mix.Pick(seq)
	}
	return Request{Seq: seq, Class: class, Scheduled: scheduled, Lateness: lateness}
}

// fire submits one request, classifies the outcome, and records latency.
// It returns true when the closed loop should retry the same request.
func (d *driver) fire(req Request) (retry bool) {
	n := d.inflight.Add(1)
	for {
		p := d.peak.Load()
		if n <= p || d.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer d.inflight.Add(-1)

	t0 := time.Now()
	out, err := d.submit(req)
	switch out {
	case OK:
		d.latency.Observe(float64(time.Since(t0).Nanoseconds()))
		d.oks.Add(1)
	case Shed:
		d.sheds.Add(1)
		// Open loop never retries: the schedule has moved on and a
		// retry would be a new (unscheduled) arrival.
		return d.cfg.Arrivals == nil
	case Drop:
		d.drops.Add(1)
	case Fatal:
		if err == nil {
			err = fmt.Errorf("workloadgen: submit reported a fatal outcome without an error")
		}
		d.firstErr.CompareAndSwap(nil, err)
	}
	return false
}

// runOpen fires the absolute schedule: arrival i at start + Times[i],
// catch-up semantics when the host oversleeps. Gaps below the host's
// sleep granularity are handled by the absolute schedule — oversleeping
// one arrival makes the following ones fire immediately until the
// schedule is caught up, so the offered rate holds even when single gaps
// cannot be slept accurately.
func (d *driver) runOpen(start time.Time) {
	var wg sync.WaitGroup
	next := start
	var elapsed time.Duration
	for seq := 0; seq < d.cfg.Requests; seq++ {
		if _, broken := d.firstErr.Load().(error); broken {
			break
		}
		gap := d.cfg.Arrivals.Gap(uint64(seq))
		elapsed += gap
		next = next.Add(gap)
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		lateness := time.Since(start) - elapsed
		if lateness < 0 {
			lateness = 0
		}
		d.lateness.Observe(float64(lateness.Nanoseconds()))
		req := d.request(uint64(seq), elapsed, lateness)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.fire(req)
		}()
	}
	wg.Wait()
}

// runClosed runs the classic closed loop: Clients workers, each issuing
// its next request the moment the previous one completes, retrying Shed
// requests after the backoff.
func (d *driver) runClosed() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := next.Add(1) - 1
				if seq >= int64(d.cfg.Requests) {
					return
				}
				if _, broken := d.firstErr.Load().(error); broken {
					return
				}
				req := d.request(uint64(seq), 0, 0)
				for d.fire(req) {
					d.retries.Add(1)
					time.Sleep(d.cfg.RetryBackoff)
				}
			}
		}()
	}
	wg.Wait()
}
