//go:build !linux

package workloadgen

import "time"

// sleepUntil blocks until t on the runtime's timer.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
