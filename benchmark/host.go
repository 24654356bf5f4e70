package main

import (
	"runtime"
	"syscall"
	"time"
)

// hostStamp is the process's resource counters at one instant; two stamps
// bracket a phase.
type hostStamp struct {
	wall    time.Time
	cpu     time.Duration // user + system, whole process
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
}

// stampHost reads the counters. ReadMemStats stops the world for some
// tens of microseconds, so stamps are taken outside anything timed per
// operation.
func stampHost() hostStamp {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostStamp{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// hostDelta is what one phase consumed.
type hostDelta struct {
	wall, cpu, gcPause time.Duration
	mallocs, bytes     uint64
	gcs                uint32
}

func (a hostStamp) until(b hostStamp) hostDelta {
	return hostDelta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		gcPause: b.gcPause - a.gcPause,
		mallocs: b.mallocs - a.mallocs,
		bytes:   b.bytes - a.bytes,
		gcs:     b.gcs - a.gcs,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU is the user+system CPU time the whole process has used,
// load generator included: on a fixed-rate open loop it is the only
// end-to-end number a cheaper serving path can move.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
