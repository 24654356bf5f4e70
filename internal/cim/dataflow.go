package cim

import (
	"fmt"

	"cimrev/internal/isa"
	"cimrev/internal/packet"
)

// token is a packet on its way to a unit.
type token struct {
	unit *Unit
	pkt  *packet.Packet
	// readyAt is the virtual time the token becomes available at its unit.
	readyAt int64
}

// Stream injects data into a unit as the fabric's next stream (streams are
// numbered in injection order from 0; see mvm).
func (f *Fabric) Stream(addr packet.Address, data []float64) error {
	u, err := f.live(addr)
	if err != nil {
		return err
	}
	p := &packet.Packet{
		Dst:     addr,
		Stream:  f.streams,
		Type:    packet.TypeData,
		Payload: append([]float64(nil), data...),
	}
	f.streams++
	f.queue = append(f.queue, token{unit: u, pkt: p})
	if f.reg != nil {
		f.reg.Counter("fabric.streams").Inc()
	}
	return nil
}

// InjectPacket queues an arbitrary packet for the unit at its destination.
// A program packet runs its program on the fabric when delivered
// (self-programmable dataflow). A data packet keeps the Stream its sender
// gave it: that sender owns the stream's number, and with it the stream's
// noise.
func (f *Fabric) InjectPacket(p *packet.Packet) error {
	u, err := f.live(p.Dst)
	if err != nil {
		return err
	}
	f.queue = append(f.queue, token{unit: u, pkt: p.Clone()})
	return nil
}

// Run delivers tokens until the queue drains, returning what each sink unit
// emitted since the last Run, keyed by its address. It fails if maxSteps
// deliveries occur without draining (the livelock guard for cyclic graphs).
// A failed Run drops its pending tokens and outputs; the ledger keeps what ran.
func (f *Fabric) Run() (_ map[packet.Address][][]float64, err error) {
	defer func() {
		if err != nil {
			f.queue = nil
			clear(f.outputs)
		}
	}()
	clear(f.busyUntil)
	for steps := 0; len(f.queue) > 0; steps++ {
		if steps >= f.maxSteps {
			return nil, fmt.Errorf("cim: exceeded %d steps with %d tokens pending", f.maxSteps, len(f.queue))
		}
		// Deliver the earliest-ready token (FIFO among ties) so unit
		// busy-time accounting sees arrivals in virtual-time order.
		best := 0
		for i := 1; i < len(f.queue); i++ {
			if f.queue[i].readyAt < f.queue[best].readyAt {
				best = i
			}
		}
		tok := f.queue[best]
		f.queue = append(f.queue[:best], f.queue[best+1:]...)
		if err := f.deliver(tok); err != nil {
			return nil, err
		}
	}
	out := f.outputs
	f.outputs = make(map[packet.Address][][]float64)
	return out, nil
}

func (f *Fabric) deliver(tok token) error {
	if tok.unit.failed {
		// The unit failed while the token was on its way to it: the token
		// is dropped, which is exactly the paper's containment semantics.
		return nil
	}
	switch tok.pkt.Type {
	case packet.TypeProgram:
		prog, err := isa.Decode(tok.pkt.Code)
		if err != nil {
			return fmt.Errorf("cim: decode program packet: %w", err)
		}
		return f.LoadProgram(prog)
	case packet.TypeData:
		return f.applyData(tok)
	case packet.TypeControl, packet.TypeConfig:
		// Control packets carry no dataflow semantics at this layer.
		return nil
	default:
		return fmt.Errorf("cim: unknown packet type %v", tok.pkt.Type)
	}
}

func (f *Fabric) applyData(tok token) error {
	u, p := tok.unit, tok.pkt
	out, cost, err := u.fn(&u.state, p.Stream, p.Payload)
	if err != nil {
		return fmt.Errorf("cim: %v unit %v: %w", u.Kind, u.addr, err)
	}
	if f.ledger != nil {
		f.ledger.Charge("compute", cost)
	}
	// Virtual time: the unit starts when both the token and the unit are
	// ready, and is busy for the computation's latency.
	end := max(tok.readyAt, f.busyUntil[u]) + cost.LatencyPS
	f.busyUntil[u] = end
	if out == nil {
		// A nil output means the unit did not fire: nothing propagates.
		return nil
	}

	// Resolve destinations: explicit route beats router beats static edges.
	var dests []*Unit
	switch {
	case len(p.Route) > 0:
		next, ok := f.units[p.Route[0]]
		if !ok {
			return fmt.Errorf("cim: explicit route hop %v: no unit there", p.Route[0])
		}
		dests = []*Unit{next}
	case u.router != nil:
		dests = u.router(u.state, p)
	}
	if dests == nil {
		dests = u.succs
	}
	if len(dests) == 0 {
		f.outputs[u.addr] = append(f.outputs[u.addr], out)
		return nil
	}

	nbytes := 8 * len(out)
	for _, d := range dests {
		hop, err := f.mesh.Transfer(f.coordOf(u.addr), f.coordOf(d.addr), nbytes)
		if err != nil {
			return fmt.Errorf("cim: %v -> %v: %w", u.addr, d.addr, err)
		}
		if f.ledger != nil {
			f.ledger.Charge("network", hop)
		}
		np := &packet.Packet{
			Dst:     d.addr,
			Stream:  p.Stream,
			Type:    packet.TypeData,
			Payload: append([]float64(nil), out...),
		}
		if len(p.Route) > 0 {
			np.Route = append([]packet.Address(nil), p.Route[1:]...)
		}
		// A hop onto a failed unit is queued like any other and dropped on
		// delivery.
		f.queue = append(f.queue, token{unit: d, pkt: np, readyAt: end + hop.LatencyPS})
	}
	return nil
}
