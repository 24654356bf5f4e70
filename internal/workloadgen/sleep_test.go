//go:build linux

package workloadgen

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"
)

// timerSlack reads the calling thread's timer slack in ns; ok is false
// when the kernel refuses PR_GET_TIMERSLACK.
func timerSlack() (ns uintptr, ok bool) {
	r, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_GET_TIMERSLACK, 0, 0)
	return r, errno == 0
}

// TestSleepUntilTimerSlackScoped pins the driver's 1 ns timer slack to
// its one sleep: inside withPreciseTimer the thread's slack is 1 ns, and
// once it (or sleepUntil) returns the slack is what it was before. The
// test locks its own thread so every read is of the thread that slept.
func TestSleepUntilTimerSlackScoped(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, ok := timerSlack()
	if !ok {
		t.Skip("PR_GET_TIMERSLACK not supported")
	}
	var inside uintptr
	withPreciseTimer(func() { inside, _ = timerSlack() })
	if inside != 1 {
		t.Errorf("slack inside withPreciseTimer = %d ns, want 1", inside)
	}
	if after, _ := timerSlack(); after != before {
		t.Errorf("slack after withPreciseTimer = %d ns, want %d as before", after, before)
	}
	sleepUntil(time.Now().Add(50 * time.Microsecond))
	if after, _ := timerSlack(); after != before {
		t.Errorf("slack after sleepUntil = %d ns, want %d as before", after, before)
	}
}

// BenchmarkSleepOvershoot reports how late each way of sleeping wakes,
// as the median overshoot in µs over b.N sleeps of a fixed length: the
// runtime's timer (time.Sleep), a bare nanosleep(2) at the thread's
// default timer slack (50 µs on Linux), and the driver's sleepUntil,
// which sleeps at 1 ns slack. On an idle process the first rounds any
// sub-millisecond sleep up to the netpoller's whole millisecond; the
// second wakes about one slack late.
//
//	go test ./internal/workloadgen -run '^$' -bench SleepOvershoot -benchtime 200x
func BenchmarkSleepOvershoot(b *testing.B) {
	sleepers := []struct {
		name  string
		sleep func(time.Duration)
	}{
		{"time.Sleep", time.Sleep},
		{"nanosleep/default-slack", func(d time.Duration) {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			syscall.Nanosleep(&ts, nil)
		}},
		{"sleepUntil", func(d time.Duration) { sleepUntil(time.Now().Add(d)) }},
	}
	for _, us := range []int{100, 300, 2000} {
		d := time.Duration(us) * time.Microsecond
		for _, s := range sleepers {
			b.Run(fmt.Sprintf("%dus/%s", us, s.name), func(b *testing.B) {
				over := make([]float64, b.N)
				for i := range over {
					t0 := time.Now()
					s.sleep(d)
					over[i] = float64(time.Since(t0)-d) / float64(time.Microsecond)
				}
				sort.Float64s(over)
				b.ReportMetric(over[len(over)/2], "overshoot_us")
			})
		}
	}
}
