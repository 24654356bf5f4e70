package vonneumann

import (
	"strings"
	"testing"
)

// TestHierarchyConfigValidate pins the construction-time geometry checks:
// every config that is not whole sets of whole lines or that describes an
// incoherent hierarchy must be rejected with a message naming
// the offending level, and the default plus reasonable variants must pass.
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
		{"edge/L1 one set", mod(func(c *HierarchyConfig) { c.L1Size = 8 * 64; c.L1Ways = 8 }), ""},
		{"edge/equal sizes", mod(func(c *HierarchyConfig) {
			c.L1Size = 1 << 20
			c.L2Size = 1 << 20
			c.LLCSize = 1 << 20
		}), ""},
		{"line/zero", mod(func(c *HierarchyConfig) { c.LineSize = 0 }), "line size must be positive"},
		{"line/negative", mod(func(c *HierarchyConfig) { c.LineSize = -64 }), "line size must be positive"},
		{"line/not pow2", mod(func(c *HierarchyConfig) { c.LineSize = 96 }), "power of two"},
		{"L1/zero size", mod(func(c *HierarchyConfig) { c.L1Size = 0 }), "L1 size and ways must be positive"},
		{"L1/zero ways", mod(func(c *HierarchyConfig) { c.L1Ways = 0 }), "L1 size and ways must be positive"},
		{"L2/negative ways", mod(func(c *HierarchyConfig) { c.L2Ways = -1 }), "L2 size and ways must be positive"},
		{"L1/ragged size", mod(func(c *HierarchyConfig) { c.L1Size = 32<<10 + 1 }), "L1 size 32769 must be a multiple of line size"},
		{"L2/ragged size", mod(func(c *HierarchyConfig) { c.L2Size = 1<<20 + 32 }), "L2 size 1048608 must be a multiple of line size"},
		{"L1/fewer lines than ways", mod(func(c *HierarchyConfig) { c.L1Size = 4 * 64 }), "L1 holds 4 lines, fewer than 8 ways"},
		{"LLC/lines not multiple of ways", mod(func(c *HierarchyConfig) {
			c.LLCSize = 18 * 64
			c.LLCWays = 16
			c.L1Size = 64 * 8
			c.L2Size = 64 * 16
		}), "LLC line count 18 must be a multiple of ways"},
		{"order/L1 over L2", mod(func(c *HierarchyConfig) { c.L1Size = 2 << 20 }), "L1 size 2097152 exceeds L2 size"},
		{"order/L2 over LLC", mod(func(c *HierarchyConfig) { c.L2Size = 64 << 20 }), "L2 size 67108864 exceeds LLC size"},
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
