package workloadgen

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep(2) until t, resuming
// with the remainder when a signal interrupts it. runOpen says why it
// does not use time.Sleep.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
