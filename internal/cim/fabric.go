package cim

import (
	"fmt"
	"sync/atomic"

	"cimrev/internal/crossbar"
	"cimrev/internal/dataflow"
	"cimrev/internal/energy"
	"cimrev/internal/interconnect"
	"cimrev/internal/isa"
	"cimrev/internal/metrics"
	"cimrev/internal/noise"
	"cimrev/internal/packet"
)

// Config sizes a fabric.
type Config struct {
	// Board is this fabric's board number in a multi-board system.
	Board uint16
	// MeshW, MeshH are the tile-interconnect mesh dimensions; tiles are
	// numbered row-major across the mesh.
	MeshW, MeshH int
	// LinkBandwidth is the mesh link bandwidth in bytes/s.
	LinkBandwidth float64
	// Crossbar configures the arrays inside KindCrossbar units.
	Crossbar crossbar.Config
	// Seed drives all analog noise in the fabric.
	Seed int64
	// MaxSteps bounds dataflow deliveries per Run (cyclic graph guard).
	MaxSteps int
}

// DefaultConfig returns a 4x4-tile board with 25 GB/s links and ISAAC-scale
// crossbars.
func DefaultConfig() Config {
	return Config{
		MeshW:         4,
		MeshH:         4,
		LinkBandwidth: 25e9,
		Crossbar:      crossbar.DefaultConfig(),
		Seed:          1,
		MaxSteps:      1_000_000,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MeshW <= 0 || c.MeshH <= 0 {
		return fmt.Errorf("cim: mesh dims must be positive, got %dx%d", c.MeshW, c.MeshH)
	}
	if c.LinkBandwidth <= 0 {
		return fmt.Errorf("cim: link bandwidth must be positive, got %g", c.LinkBandwidth)
	}
	if c.MaxSteps <= 0 {
		return fmt.Errorf("cim: MaxSteps must be positive, got %d", c.MaxSteps)
	}
	return c.Crossbar.Validate()
}

// Fabric is one CIM board.
type Fabric struct {
	cfg    Config
	graph  *dataflow.Graph
	engine *dataflow.Engine
	mesh   *interconnect.Mesh
	ledger *energy.Ledger
	reg    *metrics.Registry
	// src roots the board's counter-based noise tree; mvmSeq numbers the
	// board's MVMs so each analog read gets its own derived stream. The
	// counter is atomic so concurrent dataflow execution stays race-free,
	// and draws depend only on (seed, MVM number), not goroutine schedule.
	src    noise.Source
	mvmSeq atomic.Uint64

	units  map[packet.Address]*Unit
	byNode map[dataflow.NodeID]packet.Address
}

// NewFabric builds an empty fabric charging to ledger (nil disables
// accounting) and reporting to reg (nil disables metrics).
func NewFabric(cfg Config, ledger *energy.Ledger, reg *metrics.Registry) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := interconnect.NewMesh(cfg.MeshW, cfg.MeshH, cfg.LinkBandwidth, reg)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		cfg:    cfg,
		graph:  dataflow.NewGraph(),
		mesh:   mesh,
		ledger: ledger,
		reg:    reg,
		src:    noise.NewSource(cfg.Seed),
		units:  make(map[packet.Address]*Unit),
		byNode: make(map[dataflow.NodeID]packet.Address),
	}
	engine, err := dataflow.NewEngine(f.graph, ledger,
		dataflow.WithEdgeCoster(f.edgeCost),
		dataflow.WithFuncFactory(f.funcFactory),
		dataflow.WithMaxSteps(cfg.MaxSteps),
	)
	if err != nil {
		return nil, err
	}
	f.engine = engine
	return f, nil
}

// coordOf maps a tile number to its mesh switch.
func (f *Fabric) coordOf(addr packet.Address) interconnect.Coord {
	t := int(addr.Tile)
	return interconnect.Coord{X: t % f.cfg.MeshW, Y: t / f.cfg.MeshW}
}

// edgeCost prices a dataflow edge using the board mesh.
func (f *Fabric) edgeCost(from, to dataflow.NodeID, nbytes int) energy.Cost {
	src, okS := f.byNode[from]
	dst, okD := f.byNode[to]
	if !okS || !okD {
		return energy.Zero
	}
	cost, err := f.mesh.Transfer(f.coordOf(src), f.coordOf(dst), nbytes)
	if err != nil {
		return energy.Zero
	}
	return cost
}

// AddUnit creates a unit at addr. The tile number must fit the mesh and the
// board must match the fabric's.
func (f *Fabric) AddUnit(addr packet.Address, kind UnitKind) (*Unit, error) {
	if addr.Board != f.cfg.Board {
		return nil, fmt.Errorf("cim: address %v is for board %d, fabric is board %d", addr, addr.Board, f.cfg.Board)
	}
	if int(addr.Tile) >= f.cfg.MeshW*f.cfg.MeshH {
		return nil, fmt.Errorf("cim: tile %d outside %dx%d mesh", addr.Tile, f.cfg.MeshW, f.cfg.MeshH)
	}
	if _, dup := f.units[addr]; dup {
		return nil, fmt.Errorf("cim: unit %v already exists", addr)
	}
	switch kind {
	case KindCompute, KindCrossbar, KindControl:
	default:
		return nil, fmt.Errorf("cim: unknown unit kind %d", kind)
	}
	name := fmt.Sprintf("%s@%v", kind, addr)
	id, err := f.graph.AddNode(name, addr, dataflow.Forward())
	if err != nil {
		return nil, err
	}
	u := &Unit{Kind: kind}
	f.units[addr] = u
	f.byNode[id] = addr
	if f.reg != nil {
		f.reg.Counter("fabric.units").Inc()
	}
	return u, nil
}

// Unit returns the unit at addr.
func (f *Fabric) Unit(addr packet.Address) (*Unit, error) {
	u, ok := f.units[addr]
	if !ok {
		return nil, fmt.Errorf("cim: no unit at %v", addr)
	}
	return u, nil
}

// funcFactory builds node functions, backing FuncMVM with real crossbar
// hardware (the capability dataflow.DefaultFuncFactory lacks).
func (f *Fabric) funcFactory(fn isa.Function, weights [][]float64) (dataflow.NodeFunc, error) {
	if fn != isa.FuncMVM {
		return dataflow.DefaultFuncFactory(fn, weights)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("cim: MVM configuration requires weights")
	}
	tile, err := crossbar.NewTile(f.cfg.Crossbar)
	if err != nil {
		return nil, err
	}
	cost, err := tile.Program(weights)
	if err != nil {
		return nil, err
	}
	if f.ledger != nil {
		f.ledger.Charge("program", cost)
	}
	return f.mvmFunc(tile), nil
}

// mvmFunc wraps a crossbar tile as a dataflow node function.
func (f *Fabric) mvmFunc(tile *crossbar.Tile) dataflow.NodeFunc {
	return func(_ *dataflow.State, in []float64) ([]float64, energy.Cost, error) {
		out, cost, err := tile.MVM(in, f.src.Derive(f.mvmSeq.Add(1)-1))
		if err != nil {
			return nil, energy.Zero, err
		}
		if f.reg != nil {
			f.reg.Counter("fabric.mvms").Inc()
		}
		return out, cost, nil
	}
}

// Configure assigns a function to a unit, programming crossbar hardware for
// FuncMVM (weights is the in x out matrix). Non-crossbar units reject MVM.
func (f *Fabric) Configure(addr packet.Address, fn isa.Function, weights [][]float64) error {
	u, err := f.Unit(addr)
	if err != nil {
		return err
	}
	if u.failed {
		return fmt.Errorf("cim: unit %v is failed", addr)
	}
	node, err := f.graph.NodeByAddr(addr)
	if err != nil {
		return err
	}
	if fn == isa.FuncMVM {
		if u.Kind != KindCrossbar {
			return fmt.Errorf("cim: unit %v kind %v cannot host MVM", addr, u.Kind)
		}
		if len(weights) == 0 {
			return fmt.Errorf("cim: MVM on %v requires weights", addr)
		}
		tile, err := crossbar.NewTile(f.cfg.Crossbar)
		if err != nil {
			return err
		}
		cost, err := tile.Program(weights)
		if err != nil {
			return err
		}
		if f.ledger != nil {
			f.ledger.Charge("program", cost)
		}
		node.Fn = f.mvmFunc(tile)
	} else {
		nf, err := dataflow.DefaultFuncFactory(fn, weights)
		if err != nil {
			return err
		}
		node.Fn = nf
	}
	return nil
}

// Connect wires unit src's output to unit dst's input.
func (f *Fabric) Connect(src, dst packet.Address) error {
	a, err := f.graph.NodeByAddr(src)
	if err != nil {
		return err
	}
	b, err := f.graph.NodeByAddr(dst)
	if err != nil {
		return err
	}
	return f.graph.Connect(a.ID, b.ID)
}

// Predecessors returns the units with an edge into addr.
func (f *Fabric) Predecessors(addr packet.Address) ([]packet.Address, error) {
	node, err := f.graph.NodeByAddr(addr)
	if err != nil {
		return nil, err
	}
	ids := f.graph.Predecessors(node.ID)
	out := make([]packet.Address, 0, len(ids))
	for _, id := range ids {
		if a, ok := f.byNode[id]; ok {
			out = append(out, a)
		}
	}
	return out, nil
}

// Successors returns the units addr feeds into.
func (f *Fabric) Successors(addr packet.Address) ([]packet.Address, error) {
	node, err := f.graph.NodeByAddr(addr)
	if err != nil {
		return nil, err
	}
	out := make([]packet.Address, 0, len(node.Successors()))
	for _, id := range node.Successors() {
		if a, ok := f.byNode[id]; ok {
			out = append(out, a)
		}
	}
	return out, nil
}

// DisableUnit fault-disables a unit: its node leaves the graph so in-flight
// tokens addressed to it are dropped at the containment boundary
// (Section V.A).
func (f *Fabric) DisableUnit(addr packet.Address) error {
	u, err := f.Unit(addr)
	if err != nil {
		return err
	}
	if u.failed {
		return fmt.Errorf("cim: unit %v already failed", addr)
	}
	node, err := f.graph.NodeByAddr(addr)
	if err != nil {
		return err
	}
	if err := f.graph.RemoveNode(node.ID); err != nil {
		return err
	}
	delete(f.byNode, node.ID)
	u.failed = true
	if f.reg != nil {
		f.reg.Counter("fabric.failures").Inc()
	}
	return nil
}

// LoadProgram applies a full ISA program: configure/loadweights pairs,
// connections, and initial streams. This is the static-dataflow
// configuration path.
func (f *Fabric) LoadProgram(prog isa.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	var pendingWeights [][]float64
	var pendingAddr packet.Address
	for i, in := range prog {
		switch in.Op {
		case isa.OpLoadWeights:
			w := make([][]float64, in.Rows)
			for r := 0; r < in.Rows; r++ {
				w[r] = append([]float64(nil), in.Data[r*in.Cols:(r+1)*in.Cols]...)
			}
			pendingWeights, pendingAddr = w, in.Unit
		case isa.OpConfigure:
			var weights [][]float64
			if pendingWeights != nil && pendingAddr == in.Unit {
				weights = pendingWeights
				pendingWeights = nil
			}
			if err := f.Configure(in.Unit, in.Fn, weights); err != nil {
				return fmt.Errorf("cim: program instr %d: %w", i, err)
			}
		case isa.OpConnect:
			if err := f.Connect(in.Unit, in.Unit2); err != nil {
				return fmt.Errorf("cim: program instr %d: %w", i, err)
			}
		case isa.OpStream:
			if err := f.Stream(in.Unit, in.Data); err != nil {
				return fmt.Errorf("cim: program instr %d: %w", i, err)
			}
		case isa.OpBarrier, isa.OpHalt:
		}
	}
	return nil
}

// Stream injects data into a unit.
func (f *Fabric) Stream(addr packet.Address, data []float64) error {
	node, err := f.graph.NodeByAddr(addr)
	if err != nil {
		return err
	}
	if f.reg != nil {
		f.reg.Counter("fabric.streams").Inc()
	}
	return f.engine.Inject(node.ID, data)
}

// InjectPacket delivers an arbitrary packet (program packets drive the
// self-programmable dataflow model with fabric-backed MVM support).
func (f *Fabric) InjectPacket(p *packet.Packet) error {
	return f.engine.InjectPacket(p)
}

// Run drains the dataflow queue, returning outputs keyed by unit address.
func (f *Fabric) Run() (map[packet.Address][][]float64, error) {
	raw, err := f.engine.Run()
	if err != nil {
		return nil, err
	}
	out := make(map[packet.Address][][]float64, len(raw))
	for id, results := range raw {
		addr, ok := f.byNode[id]
		if !ok {
			continue
		}
		out[addr] = results
	}
	return out, nil
}
