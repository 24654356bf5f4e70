// Package vonneumann models the architecture the paper positions CIM
// against (Section I, Fig 1): a CPU or GPU that must move every operand
// through a memory hierarchy. It provides the roofline machine models used
// as the baselines in every experiment, the cache geometry they price
// against, and the executing twin the hybrid dispatcher routes to.
package vonneumann

import "fmt"

// HierarchyConfig sizes a three-level cache hierarchy.
type HierarchyConfig struct {
	L1Size, L1Ways   int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	LineSize         int
}

// DefaultHierarchy returns a server-class hierarchy: 32 KiB/8-way L1,
// 1 MiB/16-way L2, 32 MiB/16-way LLC, 64 B lines.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 1 << 20, L2Ways: 16,
		LLCSize: 32 << 20, LLCWays: 16,
		LineSize: 64,
	}
}

// Validate rejects geometries that are not whole sets of whole lines or
// that describe a physically incoherent hierarchy. NewBackend calls this
// first so the executing twin fails fast instead of pricing against a
// cache that cannot exist.
func (cfg HierarchyConfig) Validate() error {
	if cfg.LineSize <= 0 {
		return fmt.Errorf("vonneumann: line size must be positive (%d)", cfg.LineSize)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		return fmt.Errorf("vonneumann: line size %d must be a power of two", cfg.LineSize)
	}
	levels := []struct {
		name       string
		size, ways int
	}{
		{"L1", cfg.L1Size, cfg.L1Ways},
		{"L2", cfg.L2Size, cfg.L2Ways},
		{"LLC", cfg.LLCSize, cfg.LLCWays},
	}
	for _, l := range levels {
		if l.size <= 0 || l.ways <= 0 {
			return fmt.Errorf("vonneumann: %s size and ways must be positive (%d, %d)", l.name, l.size, l.ways)
		}
		if l.size%cfg.LineSize != 0 {
			return fmt.Errorf("vonneumann: %s size %d must be a multiple of line size %d", l.name, l.size, cfg.LineSize)
		}
		lines := l.size / cfg.LineSize
		if lines < l.ways {
			return fmt.Errorf("vonneumann: %s holds %d lines, fewer than %d ways", l.name, lines, l.ways)
		}
		if lines%l.ways != 0 {
			return fmt.Errorf("vonneumann: %s line count %d must be a multiple of ways %d", l.name, lines, l.ways)
		}
	}
	if cfg.L1Size > cfg.L2Size {
		return fmt.Errorf("vonneumann: L1 size %d exceeds L2 size %d", cfg.L1Size, cfg.L2Size)
	}
	if cfg.L2Size > cfg.LLCSize {
		return fmt.Errorf("vonneumann: L2 size %d exceeds LLC size %d", cfg.L2Size, cfg.LLCSize)
	}
	return nil
}
