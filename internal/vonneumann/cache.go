// Package vonneumann models the architecture the paper positions CIM
// against (Section I, Fig 1): a CPU or GPU that must move every operand
// through a memory hierarchy. It provides the roofline machine models used
// as the baselines in every experiment, the cache geometry they price
// against, and the executing twin the hybrid dispatcher routes to.
package vonneumann

import "fmt"

// HierarchyConfig is the cache geometry the executing twin prices
// against: the last-level cache's size, which decides whether a network's
// quantized weights stay resident or stream from DRAM every flush, and the
// line size that rounds each stage's traffic up to whole lines.
type HierarchyConfig struct {
	LLCSize  int
	LineSize int
}

// DefaultHierarchy returns a server-class hierarchy: a 32 MiB LLC, 64 B
// lines.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{LLCSize: 32 << 20, LineSize: 64}
}

// Validate rejects a geometry that is not whole lines: the line size must be
// a positive power of two and the LLC a positive multiple of it. NewBackend
// calls this first so the executing twin fails fast instead of pricing
// against a cache that cannot exist.
func (cfg HierarchyConfig) Validate() error {
	if cfg.LineSize <= 0 {
		return fmt.Errorf("vonneumann: line size must be positive (%d)", cfg.LineSize)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		return fmt.Errorf("vonneumann: line size %d must be a power of two", cfg.LineSize)
	}
	if cfg.LLCSize <= 0 {
		return fmt.Errorf("vonneumann: LLC size must be positive (%d)", cfg.LLCSize)
	}
	if cfg.LLCSize%cfg.LineSize != 0 {
		return fmt.Errorf("vonneumann: LLC size %d must be a multiple of line size %d", cfg.LLCSize, cfg.LineSize)
	}
	return nil
}
