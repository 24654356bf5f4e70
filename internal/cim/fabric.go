package cim

import (
	"fmt"
	"slices"

	"cimrev/internal/crossbar"
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

// Fabric is one CIM board and the dataflow runtime that drives it: a queue
// of tokens that Run drains in order. It keeps no clock; what a run cost is
// what it charged to the ledger.
type Fabric struct {
	cfg    Config
	mesh   *interconnect.Mesh
	ledger *energy.Ledger
	reg    *metrics.Registry
	// src roots the board's counter-based noise tree (see mvm).
	src noise.Source

	// units indexes every unit ever added by its address, failed ones too;
	// order holds the same units in the order they were added, the order
	// Predecessors reports them in.
	units map[packet.Address]*Unit
	order []*Unit

	// queue holds the tokens Run has yet to deliver, in delivery order: a
	// token is a packet whose Dst is a unit of the fabric.
	queue []*packet.Packet
	// maxSteps bounds token deliveries per Run, so a graph with a feedback
	// loop terminates: 1,000,000.
	maxSteps int
	// streams numbers the data streams Stream starts, in injection order:
	// it is the next stream's number.
	streams packet.StreamID
	// outputs collects what sink units emit until Run returns it.
	outputs map[packet.Address][][]float64
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
	return &Fabric{
		cfg:      cfg,
		mesh:     mesh,
		ledger:   ledger,
		reg:      reg,
		src:      noise.NewSource(cfg.Seed),
		units:    make(map[packet.Address]*Unit),
		maxSteps: 1_000_000,
		outputs:  make(map[packet.Address][][]float64),
	}, nil
}

// coordOf maps a tile number to its mesh switch.
func (f *Fabric) coordOf(addr packet.Address) interconnect.Coord {
	t := int(addr.Tile)
	return interconnect.Coord{X: t % f.cfg.MeshW, Y: t / f.cfg.MeshW}
}

// AddUnit creates a unit at addr, forwarding its input until a configure
// gives it a function. The tile number must fit the mesh and the board
// must match the fabric's.
func (f *Fabric) AddUnit(addr packet.Address, kind UnitKind) (*Unit, error) {
	if err := f.CheckUnit(addr, kind, nil); err != nil {
		return nil, err
	}
	u := &Unit{Kind: kind, addr: addr, fn: forward}
	f.units[addr] = u
	f.order = append(f.order, u)
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
	_, _, err := f.stage(addr, kind, layer)
	return err
}

// stage lays layer out as the dense stage of the unit of kind at addr,
// writing nothing: the one check that the unit can host the MVM.
func (f *Fabric) stage(addr packet.Address, kind UnitKind, layer *nn.Dense) (*dpe.DenseStage, crossbar.Checked, error) {
	if kind != KindCrossbar {
		return nil, crossbar.Checked{}, fmt.Errorf("cim: unit %v kind %v cannot host MVM", addr, kind)
	}
	if layer == nil {
		return nil, crossbar.Checked{}, fmt.Errorf("cim: MVM on %v requires weights", addr)
	}
	st, ck, err := dpe.NewDenseStage(f.cfg.Crossbar, layer)
	if err != nil {
		return nil, crossbar.Checked{}, fmt.Errorf("cim: MVM on %v: %w", addr, err)
	}
	return st, ck, nil
}

// Unit returns the unit at addr, failed or not.
func (f *Fabric) Unit(addr packet.Address) (*Unit, error) {
	u, ok := f.units[addr]
	if !ok {
		return nil, fmt.Errorf("cim: no unit at %v", addr)
	}
	return u, nil
}

// live returns the working unit at addr: a failed unit has left the
// dataflow, so nothing configures, wires or feeds it.
func (f *Fabric) live(addr packet.Address) (*Unit, error) {
	u, err := f.Unit(addr)
	if err != nil {
		return nil, err
	}
	if u.failed {
		return nil, fmt.Errorf("cim: unit %v has failed", addr)
	}
	return u, nil
}

// Configure gives the unit at addr the function fn, clears its state and
// charges the reconfiguration: the one configure path, which a loaded
// program and a program packet take too. FuncMVM puts layer on crossbar
// hardware (see mvm); every other function is digital and takes a nil
// layer.
func (f *Fabric) Configure(addr packet.Address, fn isa.Function, layer *nn.Dense) error {
	u, err := f.live(addr)
	if err != nil {
		return err
	}
	var uf unitFunc
	switch fn {
	case isa.FuncForward:
		uf = forward
	case isa.FuncAccumulate:
		uf = accumulate
	case isa.FuncMaxPool:
		uf = maxPool
	case isa.FuncMVM:
		if uf, err = f.mvm(u, layer); err != nil {
			return err
		}
	default:
		a, ok := Activations[fn]
		if !ok {
			return fmt.Errorf("cim: unit %v: unknown function %v", addr, fn)
		}
		uf = activation(a)
	}
	u.fn, u.state = uf, nil
	if f.ledger != nil {
		f.ledger.Charge("reconfigure", energy.Cost{
			LatencyPS: energy.EDRAMAccessLatencyPS,
			EnergyPJ:  1,
		})
	}
	return nil
}

// mvm puts layer on the crossbar unit u as a dpe.DenseStage, charging the
// array write to "program", and returns the function that reads it.
//
// Stream k's read of the MVM unit at addr draws from
// src.Derive(k).Derive(Unit·MeshW·MeshH + Tile) and costs the stage's
// Price. For a compiled plan that unit number is the layer index, so stream
// k draws what a dpe.Engine with the same crossbar config and seed draws
// for noise key k.
func (f *Fabric) mvm(u *Unit, layer *nn.Dense) (unitFunc, error) {
	st, ck, err := f.stage(u.addr, u.Kind, layer)
	if err != nil {
		return nil, err
	}
	cost := ck.Program(obs.Ctx{})
	if f.ledger != nil {
		f.ledger.Charge("program", cost)
	}
	unit := uint64(u.addr.Unit)*uint64(f.cfg.MeshW*f.cfg.MeshH) + uint64(u.addr.Tile)
	price := st.Price()
	return func(_ *[]float64, stream packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
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

// Connect wires unit src's output to unit dst's input. Self-edges and
// duplicate edges are rejected.
func (f *Fabric) Connect(src, dst packet.Address) error {
	a, b, err := f.edge(src, dst)
	if err != nil {
		return err
	}
	a.succs = append(a.succs, b)
	return nil
}

// edge returns the units Connect(src, dst) would wire, or why it cannot.
func (f *Fabric) edge(src, dst packet.Address) (a, b *Unit, err error) {
	if a, err = f.live(src); err != nil {
		return nil, nil, err
	}
	if b, err = f.live(dst); err != nil {
		return nil, nil, err
	}
	if a == b {
		return nil, nil, fmt.Errorf("cim: self-edge on unit %v", src)
	}
	if slices.Contains(a.succs, b) {
		return nil, nil, fmt.Errorf("cim: edge %v->%v already exists", src, dst)
	}
	return a, b, nil
}

// Predecessors returns the units with an edge into addr, in the order they
// were added.
func (f *Fabric) Predecessors(addr packet.Address) ([]packet.Address, error) {
	u, err := f.live(addr)
	if err != nil {
		return nil, err
	}
	out := []packet.Address{}
	for _, p := range f.order {
		if slices.Contains(p.succs, u) {
			out = append(out, p.addr)
		}
	}
	return out, nil
}

// Successors returns the units addr feeds into, in the order they were
// connected.
func (f *Fabric) Successors(addr packet.Address) ([]packet.Address, error) {
	u, err := f.live(addr)
	if err != nil {
		return nil, err
	}
	out := make([]packet.Address, 0, len(u.succs))
	for _, s := range u.succs {
		out = append(out, s.addr)
	}
	return out, nil
}

// DisableUnit fault-disables a unit: it leaves the dataflow with every edge
// touching it, so tokens on their way to it are dropped at the containment
// boundary (Section V.A).
func (f *Fabric) DisableUnit(addr packet.Address) error {
	u, err := f.Unit(addr)
	if err != nil {
		return err
	}
	if u.failed {
		return fmt.Errorf("cim: unit %v already failed", addr)
	}
	u.failed, u.succs = true, nil
	for _, other := range f.order {
		other.succs = slices.DeleteFunc(other.succs, func(s *Unit) bool { return s == u })
	}
	if f.reg != nil {
		f.reg.Counter("fabric.failures").Inc()
	}
	return nil
}

// LoadProgram validates prog, checks every instruction against the fabric
// and only then runs it: the one isa.Program interpreter, behind static
// dataflow (a loaded program) and self-programmable dataflow (a program
// packet) alike. A program that fails a check changes nothing. A
// loadweights supplies the layer of the next configure of the same unit:
// its in x out operand (Data[r*Cols+c] is the weight input r drives into
// output c) transposed, once, into the bias-free layer whose column o is
// the operand's column o. Barriers and halt are implicit in Run's
// run-to-drain loop.
func (f *Fabric) LoadProgram(prog isa.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	var apply []func() error
	added := make(map[[2]packet.Address]bool)
	var pending *nn.Dense
	var pendingAddr packet.Address
	for i, in := range prog {
		var err error
		switch in.Op {
		case isa.OpLoadWeights:
			w := make([][]float64, in.Cols)
			for o := range w {
				w[o] = make([]float64, in.Rows)
				for r := range w[o] {
					w[o][r] = in.Data[r*in.Cols+o]
				}
			}
			pending, err = nn.NewDenseCols(w)
			pendingAddr = in.Unit
		case isa.OpConfigure:
			var layer *nn.Dense
			if pending != nil && pendingAddr == in.Unit {
				layer, pending = pending, nil
			}
			var u *Unit
			if u, err = f.live(in.Unit); err == nil && in.Fn == isa.FuncMVM {
				_, _, err = f.stage(u.addr, u.Kind, layer)
			}
			apply = append(apply, func() error { return f.Configure(in.Unit, in.Fn, layer) })
		case isa.OpConnect:
			e := [2]packet.Address{in.Unit, in.Unit2}
			if _, _, err = f.edge(in.Unit, in.Unit2); err == nil && added[e] {
				err = fmt.Errorf("cim: edge %v->%v already exists", in.Unit, in.Unit2)
			}
			added[e] = true
			apply = append(apply, func() error { return f.Connect(in.Unit, in.Unit2) })
		case isa.OpStream:
			_, err = f.live(in.Unit)
			apply = append(apply, func() error { return f.Stream(in.Unit, in.Data) })
		}
		if err != nil {
			return fmt.Errorf("cim: program instr %d: %w", i, err)
		}
	}
	for _, a := range apply {
		if err := a(); err != nil {
			return err
		}
	}
	return nil
}
