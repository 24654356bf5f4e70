package cim

import (
	"fmt"

	"cimrev/internal/crossbar"
	"cimrev/internal/dataflow"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/interconnect"
	"cimrev/internal/isa"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
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
	// src roots the board's counter-based noise tree (see funcFactory).
	src noise.Source

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
	if err := f.CheckUnit(addr, kind, nil); err != nil {
		return nil, err
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

// CheckUnit reports whether AddUnit(addr, kind) would succeed and, for a
// layer that is not nil, whether Configure(addr, isa.FuncMVM, layer) would
// then succeed too. It changes nothing, so a caller placing several units
// checks them all before it adds any.
func (f *Fabric) CheckUnit(addr packet.Address, kind UnitKind, layer *nn.Dense) error {
	if addr.Board != f.cfg.Board {
		return fmt.Errorf("cim: address %v is for board %d, fabric is board %d", addr, addr.Board, f.cfg.Board)
	}
	if int(addr.Tile) >= f.cfg.MeshW*f.cfg.MeshH {
		return fmt.Errorf("cim: tile %d outside %dx%d mesh", addr.Tile, f.cfg.MeshW, f.cfg.MeshH)
	}
	if _, dup := f.units[addr]; dup {
		return fmt.Errorf("cim: unit %v already exists", addr)
	}
	switch kind {
	case KindCompute, KindCrossbar, KindControl:
	default:
		return fmt.Errorf("cim: unknown unit kind %d", kind)
	}
	if layer == nil {
		return nil
	}
	if kind != KindCrossbar {
		return fmt.Errorf("cim: unit %v kind %v cannot host MVM", addr, kind)
	}
	if _, _, err := dpe.NewDenseStage(f.cfg.Crossbar, layer); err != nil {
		return fmt.Errorf("cim: MVM on %v: %w", addr, err)
	}
	return nil
}

// Unit returns the unit at addr.
func (f *Fabric) Unit(addr packet.Address) (*Unit, error) {
	u, ok := f.units[addr]
	if !ok {
		return nil, fmt.Errorf("cim: no unit at %v", addr)
	}
	return u, nil
}

// funcFactory is the fabric's half of the one configure path, which
// Configure and program packets both take: FuncMVM puts layer on a crossbar
// unit as a dpe.DenseStage, every other function is a digital one from
// dataflow.DefaultFuncFactory.
//
// Stream k's read of the MVM unit at addr draws from
// src.Derive(k).Derive(Unit·MeshW·MeshH + Tile) and costs the stage's
// Price. For a compiled plan that unit number is the layer index, so stream
// k draws what a dpe.Engine with the same crossbar config and seed draws
// for noise key k.
func (f *Fabric) funcFactory(addr packet.Address, fn isa.Function, layer *nn.Dense) (dataflow.NodeFunc, error) {
	if fn != isa.FuncMVM {
		return dataflow.DefaultFuncFactory(addr, fn, layer)
	}
	u, err := f.Unit(addr)
	if err != nil {
		return nil, err
	}
	if u.Kind != KindCrossbar {
		return nil, fmt.Errorf("cim: unit %v kind %v cannot host MVM", addr, u.Kind)
	}
	if layer == nil {
		return nil, fmt.Errorf("cim: MVM on %v requires weights", addr)
	}
	st, ck, err := dpe.NewDenseStage(f.cfg.Crossbar, layer)
	if err != nil {
		return nil, fmt.Errorf("cim: MVM on %v: %w", addr, err)
	}
	cost := ck.Program(obs.Ctx{})
	if f.ledger != nil {
		f.ledger.Charge("program", cost)
	}
	unit := uint64(addr.Unit)*uint64(f.cfg.MeshW*f.cfg.MeshH) + uint64(addr.Tile)
	price := st.Price()
	return func(_ *dataflow.State, stream packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
		out := make([]float64, layer.OutSize())
		ns := f.src.Derive(uint64(stream)).Derive(unit)
		if err := st.Read(obs.Ctx{}, [][]float64{out}, [][]float64{in}, []noise.Source{ns}); err != nil {
			return nil, energy.Zero, err
		}
		if f.reg != nil {
			f.reg.Counter("fabric.mvms").Inc()
		}
		return out, price, nil
	}, nil
}

// Configure assigns a function to a unit, putting layer on crossbar
// hardware for FuncMVM (nil for every other function). Non-crossbar units
// reject MVM.
func (f *Fabric) Configure(addr packet.Address, fn isa.Function, layer *nn.Dense) error {
	return f.engine.Configure(addr, fn, layer)
}

// Connect wires unit src's output to unit dst's input.
func (f *Fabric) Connect(src, dst packet.Address) error {
	return f.engine.Connect(src, dst)
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
// configuration path; it runs dataflow.Exec, the interpreter a program
// packet runs.
func (f *Fabric) LoadProgram(prog isa.Program) error {
	return dataflow.Exec(f, prog)
}

// Stream injects data into a unit as the fabric's next stream (streams are
// numbered in injection order from 0; see funcFactory).
func (f *Fabric) Stream(addr packet.Address, data []float64) error {
	if err := f.engine.Stream(addr, data); err != nil {
		return err
	}
	if f.reg != nil {
		f.reg.Counter("fabric.streams").Inc()
	}
	return nil
}

// InjectPacket delivers an arbitrary packet (program packets drive the
// self-programmable dataflow model with fabric-backed MVM support). A data
// packet is read as the stream its Stream field names.
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
