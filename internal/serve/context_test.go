package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cimrev/internal/metrics"
)

// TestSubmitPreCanceledContext: a context that is already done never
// enqueues — SubmitKeyed fails fast with ErrCanceled wrapping the cause.
func TestSubmitPreCanceledContext(t *testing.T) {
	bk := &countingBackend{}
	srv, err := New(bk, WithBatch(4, 0), WithQueueBound(16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = srv.SubmitKeyed(ctx, 0, []float64{1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SubmitKeyed with dead context = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled does not wrap the context cause: %v", err)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if len(bk.sizes) != 0 {
		t.Fatalf("pre-canceled request reached the backend: batches %v", bk.sizes)
	}
}

// TestSubmitNilContext: a nil context is treated as context.Background().
func TestSubmitNilContext(t *testing.T) {
	bk := &countingBackend{}
	srv, err := New(bk, WithBatch(1, 0), WithQueueBound(16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.SubmitKeyed(nil, 0, []float64{1}); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("SubmitKeyed(nil, ...) = %v, want nil error", err)
	}
}

// TestSubmitCanceledWhileQueued pins the shed path: requests whose context
// dies while they sit in the pending list are skipped at flush time — the
// callers get ErrCanceled and the abandoned inputs never reach the
// backend.
func TestSubmitCanceledWhileQueued(t *testing.T) {
	const parked = 4
	bk := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	reg := metrics.NewRegistry()
	srv, err := New(bk, WithBatch(1, 0), WithQueueBound(parked+1), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	// Jam the flusher inside a flush so the queue holds still.
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := srv.SubmitKeyed(context.Background(), 0, []float64{0})
		firstDone <- err
	}()
	<-bk.entered

	// Park requests in the queue under a cancelable context.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = srv.SubmitKeyed(ctx, uint64(i+1), []float64{float64(i + 1)})
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for srv.QueueDepth() < parked {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %d/%d", srv.QueueDepth(), parked)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Abandon them, then let the flusher run again.
	cancel()
	wg.Wait()
	close(bk.release)
	if err := <-firstDone; err != nil {
		t.Errorf("first request: %v", err)
	}
	srv.Close()

	for i, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("parked request %d: %v, want ErrCanceled", i, err)
		}
	}
	// Only the first request ever reached the device: the four abandoned
	// requests were shed before flush.
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if len(bk.batches) != 1 {
		t.Errorf("backend saw %d batches, want 1 (abandoned work must be shed)", len(bk.batches))
	}
	if got := reg.Counter("serve.canceled").Value(); got != parked {
		t.Errorf("serve.canceled = %d, want %d", got, parked)
	}
	close(bk.entered)
}

// TestSubmitCanceledMidBatch: a request already mid-flush when its context
// dies returns ErrCanceled immediately; the device result is discarded
// into the buffered response channel and nothing leaks or deadlocks.
func TestSubmitCanceledMidBatch(t *testing.T) {
	bk := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	reg := metrics.NewRegistry()
	srv, err := New(bk, WithBatch(1, 0), WithQueueBound(8), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.SubmitKeyed(ctx, 0, []float64{1})
		done <- err
	}()
	<-bk.entered // the request is on the device
	cancel()
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-batch cancel = %v, want ErrCanceled", err)
	}
	// The flusher finishes the flush into the buffered channel; Close
	// must not hang on the abandoned request.
	close(bk.release)
	srv.Close()
	close(bk.entered)
	if got := reg.Counter("serve.canceled").Value(); got != 1 {
		t.Errorf("serve.canceled = %d, want 1", got)
	}
}

// TestSubmitDeadlineExceeded: a context whose *deadline* fires mid-batch
// surfaces ErrDeadlineExceeded (not ErrCanceled), wraps
// context.DeadlineExceeded, and lands in the deadline cause and mid-batch
// stage counters.
func TestSubmitDeadlineExceeded(t *testing.T) {
	bk := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	reg := metrics.NewRegistry()
	srv, err := New(bk, WithBatch(1, 0), WithQueueBound(8), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.SubmitKeyed(ctx, 0, []float64{1})
		done <- err
	}()
	<-bk.entered
	err = <-done
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline expiry = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline expiry = %v, must not be ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrDeadlineExceeded does not wrap DeadlineExceeded: %v", err)
	}
	close(bk.release)
	srv.Close()
	close(bk.entered)
	if got := reg.Counter("serve.deadline_exceeded").Value(); got != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", got)
	}
	if got := reg.Counter("serve.canceled").Value(); got != 0 {
		t.Errorf("serve.canceled = %d, want 0 (deadline is a distinct cause)", got)
	}
	if got := reg.Counter("serve.deadline_mid_batch").Value(); got != 1 {
		t.Errorf("serve.deadline_mid_batch = %d, want 1", got)
	}
}

// TestSubmitDeadlinePreEnqueue: an already-expired deadline never enqueues;
// the pre-enqueue stage counter and the deadline cause counter move, the
// cancel counter does not.
func TestSubmitDeadlinePreEnqueue(t *testing.T) {
	bk := &countingBackend{}
	reg := metrics.NewRegistry()
	srv, err := New(bk, WithBatch(4, 0), WithQueueBound(16), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = srv.SubmitKeyed(ctx, 0, []float64{1})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("SubmitKeyed with expired deadline = %v, want ErrDeadlineExceeded", err)
	}
	bk.mu.Lock()
	if len(bk.sizes) != 0 {
		t.Fatalf("expired request reached the backend: batches %v", bk.sizes)
	}
	bk.mu.Unlock()
	if got := reg.Counter("serve.deadline_pre_enqueue").Value(); got != 1 {
		t.Errorf("serve.deadline_pre_enqueue = %d, want 1", got)
	}
	if got := reg.Counter("serve.deadline_exceeded").Value(); got != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", got)
	}
	if got := reg.Counter("serve.canceled").Value(); got != 0 {
		t.Errorf("serve.canceled = %d, want 0", got)
	}
}

// TestSubmitDeadlineWhileQueued: requests whose deadline fires while they
// sit in the pending list are shed before flush — they never reach the
// backend, the callers get ErrDeadlineExceeded, and the queued-stage
// counter records each shed.
func TestSubmitDeadlineWhileQueued(t *testing.T) {
	const parked = 4
	bk := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	reg := metrics.NewRegistry()
	srv, err := New(bk, WithBatch(1, 0), WithQueueBound(parked+1), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	// Jam the flusher inside a flush so the queue holds still.
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := srv.SubmitKeyed(context.Background(), 0, []float64{0})
		firstDone <- err
	}()
	<-bk.entered

	// Park requests under a deadline that fires while they are queued.
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, _, errs[i] = srv.SubmitKeyed(ctx, uint64(i+1), []float64{float64(i + 1)})
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for srv.QueueDepth() < parked {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %d/%d", srv.QueueDepth(), parked)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Let the deadlines fire, then release the flusher.
	wg.Wait()
	close(bk.release)
	if err := <-firstDone; err != nil {
		t.Errorf("first request: %v", err)
	}
	srv.Close()

	for i, err := range errs {
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("parked request %d: %v, want ErrDeadlineExceeded", i, err)
		}
	}
	bk.mu.Lock()
	if len(bk.batches) != 1 {
		t.Errorf("backend saw %d batches, want 1 (expired work must be shed)", len(bk.batches))
	}
	bk.mu.Unlock()
	if got := reg.Counter("serve.deadline_exceeded").Value(); got != parked {
		t.Errorf("serve.deadline_exceeded = %d, want %d", got, parked)
	}
	if got := reg.Counter("serve.deadline_queued").Value(); got != parked {
		t.Errorf("serve.deadline_queued = %d, want %d", got, parked)
	}
	if got := reg.Counter("serve.canceled").Value(); got != 0 {
		t.Errorf("serve.canceled = %d, want 0", got)
	}
	close(bk.entered)
}
