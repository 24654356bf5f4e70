package workloadgen

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// BenchmarkSleepOvershoot reports how late each way of sleeping wakes,
// as the median overshoot in µs over b.N sleeps of a fixed length: the
// runtime's timer (time.Sleep) against the driver's sleepUntil. On an
// idle Linux process the first rounds any sub-millisecond sleep up to
// the netpoller's whole millisecond.
//
//	go test ./internal/workloadgen -run '^$' -bench SleepOvershoot -benchtime 200x
func BenchmarkSleepOvershoot(b *testing.B) {
	sleepers := []struct {
		name  string
		sleep func(time.Duration)
	}{
		{"time.Sleep", time.Sleep},
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
