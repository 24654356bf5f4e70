package vonneumann

import (
	"strings"
	"testing"
)

// TestHierarchyConfigValidate pins the construction-time geometry checks:
// every config that is not whole lines must be rejected with a message
// naming what is wrong, and the default must pass.
func TestHierarchyConfigValidate(t *testing.T) {
	base := DefaultHierarchy()
	mod := func(f func(*HierarchyConfig)) HierarchyConfig {
		cfg := base
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     HierarchyConfig
		wantErr string // substring; "" means must validate
	}{
		{"default", base, ""},
		{"line/zero", mod(func(c *HierarchyConfig) { c.LineSize = 0 }), "line size must be positive"},
		{"line/negative", mod(func(c *HierarchyConfig) { c.LineSize = -64 }), "line size must be positive"},
		{"line/not pow2", mod(func(c *HierarchyConfig) { c.LineSize = 96 }), "power of two"},
		{"LLC/zero size", mod(func(c *HierarchyConfig) { c.LLCSize = 0 }), "LLC size must be positive"},
		{"LLC/ragged size", mod(func(c *HierarchyConfig) { c.LLCSize = 32<<20 + 32 }), "LLC size 33554464 must be a multiple of line size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}
