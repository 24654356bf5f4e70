package dataflow

import (
	"fmt"

	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/packet"
)

// EdgeCoster prices the transfer of nbytes along the edge from -> to. The
// CIM fabric plugs its interconnect model in here; the default charges a
// flat on-tile hop.
type EdgeCoster func(from, to NodeID, nbytes int) energy.Cost

func defaultEdgeCost(_, _ NodeID, nbytes int) energy.Cost {
	return energy.Cost{
		LatencyPS: energy.RouterHopLatencyPS,
		EnergyPJ:  float64(nbytes) * energy.LinkEnergyPJPerByte,
	}
}

// FuncFactory materializes a NodeFunc for an isa.Function during
// self-programming. The engine owns no crossbar hardware, so MVM and other
// hardware-backed functions must come from the embedding layer.
type FuncFactory func(fn isa.Function, weights [][]float64) (NodeFunc, error)

// DefaultFuncFactory supports the digital functions; it rejects FuncMVM
// because MVM needs crossbar hardware from the embedding fabric.
func DefaultFuncFactory(fn isa.Function, _ [][]float64) (NodeFunc, error) {
	switch fn {
	case isa.FuncForward:
		return Forward(), nil
	case isa.FuncReLU:
		return ReLU(), nil
	case isa.FuncSigmoid:
		return Sigmoid(), nil
	case isa.FuncAccumulate:
		return Accumulate(), nil
	case isa.FuncMaxPool:
		return MaxPool(), nil
	case isa.FuncTanh:
		return Tanh(), nil
	case isa.FuncSoftmax:
		return Softmax(), nil
	default:
		return nil, fmt.Errorf("dataflow: function %v not available without fabric hardware", fn)
	}
}

// Engine executes tokens through a Graph in deterministic FIFO order,
// charging computation and communication costs to a ledger.
type Engine struct {
	graph   *Graph
	ledger  *energy.Ledger
	edge    EdgeCoster
	factory FuncFactory

	queue    []token
	maxSteps int

	outputs map[NodeID][][]float64

	// Virtual-time tracking: nodes are resources that serialize their own
	// work while distinct nodes overlap, so tokens are delivered in the
	// order a pipelined, fanned-out fabric would see them.
	busyUntil map[NodeID]int64
}

type token struct {
	node NodeID
	pkt  *packet.Packet
	// readyAt is the virtual time the token becomes available at its node.
	readyAt int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithEdgeCoster replaces the default edge cost model.
func WithEdgeCoster(ec EdgeCoster) Option {
	return func(e *Engine) { e.edge = ec }
}

// WithFuncFactory replaces the default self-programming function factory.
func WithFuncFactory(f FuncFactory) Option {
	return func(e *Engine) { e.factory = f }
}

// WithMaxSteps bounds token deliveries per Run; graphs with feedback loops
// need this to terminate. The default is 1,000,000.
func WithMaxSteps(n int) Option {
	return func(e *Engine) { e.maxSteps = n }
}

// NewEngine returns an engine over the graph, charging costs to ledger
// (which may be nil to disable accounting).
func NewEngine(g *Graph, ledger *energy.Ledger, opts ...Option) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("dataflow: nil graph")
	}
	e := &Engine{
		graph:     g,
		ledger:    ledger,
		edge:      defaultEdgeCost,
		factory:   DefaultFuncFactory,
		maxSteps:  1_000_000,
		outputs:   make(map[NodeID][][]float64),
		busyUntil: make(map[NodeID]int64),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Inject queues a data token for the node.
func (e *Engine) Inject(node NodeID, payload []float64) error {
	n, err := e.graph.Node(node)
	if err != nil {
		return err
	}
	p := &packet.Packet{
		Dst:     n.Addr,
		Type:    packet.TypeData,
		Payload: append([]float64(nil), payload...),
	}
	e.queue = append(e.queue, token{node: node, pkt: p})
	return nil
}

// InjectPacket queues an arbitrary packet for the node whose address matches
// the packet destination. Program packets will reconfigure the graph when
// delivered (self-programmable dataflow).
func (e *Engine) InjectPacket(p *packet.Packet) error {
	n, err := e.graph.NodeByAddr(p.Dst)
	if err != nil {
		return err
	}
	e.queue = append(e.queue, token{node: n.ID, pkt: p.Clone()})
	return nil
}

// Run delivers tokens until the queue drains, returning per-sink outputs
// accumulated since the last Run. It fails if maxSteps deliveries occur
// without draining (livelock guard for cyclic graphs).
func (e *Engine) Run() (map[NodeID][][]float64, error) {
	steps := 0
	for k := range e.busyUntil {
		delete(e.busyUntil, k)
	}
	for len(e.queue) > 0 {
		if steps >= e.maxSteps {
			return nil, fmt.Errorf("dataflow: exceeded %d steps with %d tokens pending", e.maxSteps, len(e.queue))
		}
		steps++
		// Deliver the earliest-ready token (FIFO among ties) so node
		// busy-time accounting sees arrivals in virtual-time order.
		best := 0
		for i := 1; i < len(e.queue); i++ {
			if e.queue[i].readyAt < e.queue[best].readyAt {
				best = i
			}
		}
		tok := e.queue[best]
		e.queue = append(e.queue[:best], e.queue[best+1:]...)
		if err := e.deliver(tok); err != nil {
			return nil, err
		}
	}
	out := e.outputs
	e.outputs = make(map[NodeID][][]float64)
	return out, nil
}

func (e *Engine) deliver(tok token) error {
	n, err := e.graph.Node(tok.node)
	if err != nil {
		// The node disappeared (fault containment / reconfiguration)
		// while the token was in flight; the token is dropped, which is
		// exactly the paper's containment semantics.
		return nil
	}

	switch tok.pkt.Type {
	case packet.TypeProgram:
		return e.applyProgram(tok.pkt.Code)
	case packet.TypeData:
		return e.applyData(n, tok)
	case packet.TypeControl, packet.TypeConfig:
		// Control packets carry no dataflow semantics at this layer.
		return nil
	default:
		return fmt.Errorf("dataflow: unknown packet type %v", tok.pkt.Type)
	}
}

func (e *Engine) applyData(n *Node, tok token) error {
	p := tok.pkt
	out, cost, err := n.Fn(&n.state, p.Payload)
	if err != nil {
		return fmt.Errorf("dataflow: node %q (%d): %w", n.Name, n.ID, err)
	}
	if e.ledger != nil {
		e.ledger.Charge("compute", cost)
	}
	// Virtual time: the node starts when both the token and the node are
	// ready, and is busy for the computation's latency.
	start := tok.readyAt
	if b := e.busyUntil[n.ID]; b > start {
		start = b
	}
	end := start + cost.LatencyPS
	e.busyUntil[n.ID] = end
	if out == nil {
		// A nil output means the node did not fire: nothing propagates.
		return nil
	}

	// Resolve destinations: explicit route beats router beats static edges.
	var dests []NodeID
	switch {
	case len(p.Route) > 0:
		next := p.Route[0]
		nn, err := e.graph.NodeByAddr(next)
		if err != nil {
			return fmt.Errorf("dataflow: explicit route hop %v: %w", next, err)
		}
		dests = []NodeID{nn.ID}
	case n.Router != nil:
		dests = n.Router(&n.state, p)
	}
	if dests == nil {
		dests = n.succs
	}

	if len(dests) == 0 {
		e.outputs[n.ID] = append(e.outputs[n.ID], out)
		return nil
	}

	nbytes := 8 * len(out)
	for _, d := range dests {
		dn, err := e.graph.Node(d)
		if err != nil {
			return fmt.Errorf("dataflow: node %d routes to missing node %d", n.ID, d)
		}
		edgeCost := e.edge(n.ID, d, nbytes)
		if e.ledger != nil {
			e.ledger.Charge("network", edgeCost)
		}
		np := &packet.Packet{
			Dst:     dn.Addr,
			Stream:  p.Stream,
			Type:    packet.TypeData,
			Payload: append([]float64(nil), out...),
		}
		if len(p.Route) > 0 {
			np.Route = append([]packet.Address(nil), p.Route[1:]...)
		}
		e.queue = append(e.queue, token{node: d, pkt: np, readyAt: end + edgeCost.LatencyPS})
	}
	return nil
}

// applyProgram executes an embedded isa.Program against the graph — the
// self-programmable dataflow model. Supported instructions: configure
// (swap a node's function), loadweights (reconfigure via the factory),
// connect, stream, barrier, halt.
func (e *Engine) applyProgram(code []byte) error {
	prog, err := isa.Decode(code)
	if err != nil {
		return fmt.Errorf("dataflow: decode program packet: %w", err)
	}
	// loadweights preceding a configure supplies that configure's weights.
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
			n, err := e.graph.NodeByAddr(in.Unit)
			if err != nil {
				return fmt.Errorf("dataflow: program instr %d: %w", i, err)
			}
			var weights [][]float64
			if pendingWeights != nil && pendingAddr == in.Unit {
				weights = pendingWeights
				pendingWeights = nil
			}
			fn, err := e.factory(in.Fn, weights)
			if err != nil {
				return fmt.Errorf("dataflow: program instr %d: %w", i, err)
			}
			n.Fn = fn
			n.state = State{}
			if e.ledger != nil {
				e.ledger.Charge("reconfigure", energy.Cost{
					LatencyPS: energy.EDRAMAccessLatencyPS,
					EnergyPJ:  1,
				})
			}
		case isa.OpConnect:
			src, err := e.graph.NodeByAddr(in.Unit)
			if err != nil {
				return fmt.Errorf("dataflow: program instr %d: %w", i, err)
			}
			dst, err := e.graph.NodeByAddr(in.Unit2)
			if err != nil {
				return fmt.Errorf("dataflow: program instr %d: %w", i, err)
			}
			if err := e.graph.Connect(src.ID, dst.ID); err != nil {
				return fmt.Errorf("dataflow: program instr %d: %w", i, err)
			}
		case isa.OpStream:
			n, err := e.graph.NodeByAddr(in.Unit)
			if err != nil {
				return fmt.Errorf("dataflow: program instr %d: %w", i, err)
			}
			if err := e.Inject(n.ID, in.Data); err != nil {
				return err
			}
		case isa.OpBarrier, isa.OpHalt:
			// Barriers are implicit in the engine's run-to-drain loop.
		}
	}
	return nil
}
