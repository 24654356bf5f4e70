package memristor

import (
	"math"
	"testing"
)

func TestDeviceParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*DeviceParams)
		wantErr bool
	}{
		{"default ok", func(p *DeviceParams) {}, false},
		{"negative gmin", func(p *DeviceParams) { p.GMin = -1 }, true},
		{"zero gmax", func(p *DeviceParams) { p.GMax = 0 }, true},
		{"gmax below gmin", func(p *DeviceParams) { p.GMax = p.GMin / 2 }, true},
		{"one level", func(p *DeviceParams) { p.Levels = 1 }, true},
		{"negative noise", func(p *DeviceParams) { p.ReadNoise = -0.1 }, true},
		{"NaN noise", func(p *DeviceParams) { p.ReadNoise = math.NaN() }, true},
		{"infinite noise", func(p *DeviceParams) { p.ReadNoise = math.Inf(1) }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			err := p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}
