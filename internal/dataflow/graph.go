// Package dataflow implements the execution substrate of the CIM model. The
// paper grounds CIM in "dataflow-like architectures, where data is
// continuously input into [a] device which is able to both store some data
// and computation" (Section I), and defines three programming models
// (Section III.B) that this package implements:
//
//   - Static dataflow: a graph configured once and executed over and over.
//   - Dynamic dataflow: per-packet routing, explicit (the packet carries its
//     route) or implicit (a router function of node state and input).
//   - Self-programmable dataflow: program-carrying packets reconfigure the
//     graph in flight.
package dataflow

import (
	"fmt"
	"math"
	"sort"

	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
)

// NodeID identifies a node within a graph.
type NodeID int

// State is the persistent per-node storage — the "data" component of the
// paper's micro-unit (control, data, processing). Stateful functions such as
// accumulation keep their running values here.
type State struct {
	// Vec is the node's persistent vector state.
	Vec []float64
}

// NodeFunc is a node's processing component: it consumes an input vector of
// the given stream, may read and update the node's persistent state, and
// produces an output vector plus the cost of the computation. A unit that
// draws analog noise keys it by the stream number.
type NodeFunc func(s *State, stream packet.StreamID, in []float64) ([]float64, energy.Cost, error)

// Router decides where a node forwards its output, given the node's state
// and the incoming packet — the implicit form of dynamic dataflow ("a
// function of the state in CIM and the input data"). Returning nil falls
// back to the node's static successors.
type Router func(s *State, p *packet.Packet) []NodeID

// Node is one vertex in the dataflow graph.
type Node struct {
	ID     NodeID
	Name   string
	Addr   packet.Address
	Fn     NodeFunc
	Router Router

	state State
	succs []NodeID
}

// Successors returns a copy of the node's static successor list.
func (n *Node) Successors() []NodeID {
	return append([]NodeID(nil), n.succs...)
}

// Graph is a mutable dataflow graph. Mutability is the point: dynamic and
// self-programmable dataflow reconfigure it between (or during) runs.
// Graph is not safe for concurrent mutation; the Engine serializes access.
type Graph struct {
	nodes  map[NodeID]*Node
	byAddr map[packet.Address]NodeID
	nextID NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:  make(map[NodeID]*Node),
		byAddr: make(map[packet.Address]NodeID),
	}
}

// AddNode adds a node with the given name, fabric address, and function,
// returning its ID. The address must be unique within the graph.
func (g *Graph) AddNode(name string, addr packet.Address, fn NodeFunc) (NodeID, error) {
	if fn == nil {
		return 0, fmt.Errorf("dataflow: node %q needs a function", name)
	}
	if _, dup := g.byAddr[addr]; dup {
		return 0, fmt.Errorf("dataflow: address %v already in use", addr)
	}
	id := g.nextID
	g.nextID++
	g.nodes[id] = &Node{ID: id, Name: name, Addr: addr, Fn: fn}
	g.byAddr[addr] = id
	return id, nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (*Node, error) {
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("dataflow: no node %d", id)
	}
	return n, nil
}

// NodeByAddr resolves a fabric address to a node.
func (g *Graph) NodeByAddr(addr packet.Address) (*Node, error) {
	id, ok := g.byAddr[addr]
	if !ok {
		return nil, fmt.Errorf("dataflow: no node at %v", addr)
	}
	return g.nodes[id], nil
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// NodeIDs returns all node IDs in ascending order.
func (g *Graph) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Connect adds the edge from -> to. Duplicate edges are rejected.
func (g *Graph) Connect(from, to NodeID) error {
	src, ok := g.nodes[from]
	if !ok {
		return fmt.Errorf("dataflow: no node %d", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("dataflow: no node %d", to)
	}
	if from == to {
		return fmt.Errorf("dataflow: self-edge on node %d", from)
	}
	for _, s := range src.succs {
		if s == to {
			return fmt.Errorf("dataflow: edge %d->%d already exists", from, to)
		}
	}
	src.succs = append(src.succs, to)
	return nil
}

// RemoveNode deletes a node and every edge touching it — the fault
// containment primitive ("boundaries of each component ... can be shut
// down", Section V.A).
func (g *Graph) RemoveNode(id NodeID) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("dataflow: no node %d", id)
	}
	delete(g.nodes, id)
	delete(g.byAddr, n.Addr)
	for _, other := range g.nodes {
		kept := other.succs[:0]
		for _, s := range other.succs {
			if s != id {
				kept = append(kept, s)
			}
		}
		other.succs = kept
	}
	return nil
}

// Predecessors returns the IDs of nodes with an edge into id, ascending.
func (g *Graph) Predecessors(id NodeID) []NodeID {
	var out []NodeID
	for _, nid := range g.NodeIDs() {
		for _, s := range g.nodes[nid].succs {
			if s == id {
				out = append(out, nid)
				break
			}
		}
	}
	return out
}

// --- Built-in node functions ---
//
// Every built-in is a digital micro-unit pass, priced by energy.Digital.

// Forward passes input through unchanged.
func Forward() NodeFunc {
	return func(_ *State, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
		return append([]float64(nil), in...), energy.Digital(len(in)), nil
	}
}

// activation applies a on a copy of the input: nn's definition of it, the
// one the DPE's digital stages run.
func activation(a nn.Activation) NodeFunc {
	return func(_ *State, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
		out := append([]float64(nil), in...)
		a.Apply(out)
		return out, energy.Digital(len(in)), nil
	}
}

// Accumulate sums successive inputs elementwise into node state and emits
// the running sum.
func Accumulate() NodeFunc {
	return func(s *State, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
		if len(s.Vec) < len(in) {
			grown := make([]float64, len(in))
			copy(grown, s.Vec)
			s.Vec = grown
		}
		for i, v := range in {
			s.Vec[i] += v
		}
		return append([]float64(nil), s.Vec[:len(in)]...), energy.Digital(len(in)), nil
	}
}

// MaxPool emits the running elementwise maximum of everything seen.
func MaxPool() NodeFunc {
	return func(s *State, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
		if len(s.Vec) < len(in) {
			grown := make([]float64, len(in))
			copy(grown, s.Vec)
			for i := len(s.Vec); i < len(in); i++ {
				grown[i] = math.Inf(-1)
			}
			s.Vec = grown
		}
		for i, v := range in {
			if v > s.Vec[i] {
				s.Vec[i] = v
			}
		}
		return append([]float64(nil), s.Vec[:len(in)]...), energy.Digital(len(in)), nil
	}
}
