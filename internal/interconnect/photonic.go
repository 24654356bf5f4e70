package interconnect

import (
	"fmt"

	"cimrev/internal/energy"
)

// PhotonicLink is a board-to-board optical link. Per Section II.A, photonic
// interconnects "enable communications from centimeters to kilometers at
// the same energy per bit, varying only in the time of flight": energy is
// distance-independent while latency carries a time-of-flight term.
type PhotonicLink struct {
	lengthM   float64
	bandwidth float64 // bytes/s
}

// NewPhotonicLink returns a link of the given length in meters and
// bandwidth in bytes/s.
func NewPhotonicLink(lengthM, bandwidth float64) (*PhotonicLink, error) {
	if lengthM < 0 {
		return nil, fmt.Errorf("interconnect: negative link length %g", lengthM)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("interconnect: photonic bandwidth must be positive, got %g", bandwidth)
	}
	return &PhotonicLink{lengthM: lengthM, bandwidth: bandwidth}, nil
}

// Transfer returns the cost of moving nbytes across the link: time of
// flight plus serialization for latency; distance-independent energy.
func (l *PhotonicLink) Transfer(nbytes int) (energy.Cost, error) {
	if nbytes < 0 {
		return energy.Zero, fmt.Errorf("interconnect: negative transfer size %d", nbytes)
	}
	flight := energy.PicosecondsFromSeconds(l.lengthM / energy.SpeedOfLightMPerS)
	serialization := energy.PicosecondsFromSeconds(float64(nbytes) / l.bandwidth)
	return energy.Cost{
		LatencyPS: flight + serialization,
		EnergyPJ:  float64(nbytes) * energy.PhotonicEnergyPJPerByte,
	}, nil
}
