package workloadgen

import (
	"runtime"
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep(2) until t, resuming
// with the remainder when a signal interrupts it. runOpen says why it
// does not use time.Sleep. The sleep runs with 1 ns timer slack
// (withPreciseTimer): at Linux's default 50 µs slack a 100 µs nanosleep
// wakes about 55 µs late at the median, at 1 ns about 6 µs late.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	withPreciseTimer(func() {
		for {
			var rem syscall.Timespec
			if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
				return
			}
			ts = rem
		}
	})
}

// withPreciseTimer runs sleep on a locked OS thread whose timer slack is
// 1 ns, then restores the thread's default slack (prctl's 0) before it
// unlocks. The lock makes the thread that lowers the slack the one that
// sleeps and the one that restores it, so no other sleep in the process
// changes behaviour. A failed prctl is ignored: the sleep stays correct,
// only less precise.
func withPreciseTimer(sleep func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	defer setTimerSlack(0)
	sleep()
}

// setTimerSlack sets the calling thread's timer slack in ns; 0 restores
// the thread's default.
func setTimerSlack(ns uintptr) {
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, ns, 0)
}
