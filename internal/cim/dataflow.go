package cim

import (
	"fmt"

	"cimrev/internal/isa"
	"cimrev/internal/packet"
)

// Stream injects data into a unit as the fabric's next stream (streams are
// numbered in injection order from 0; see mvm).
func (f *Fabric) Stream(addr packet.Address, data []float64) error {
	if _, err := f.live(addr); err != nil {
		return err
	}
	p := &packet.Packet{
		Dst:     addr,
		Stream:  f.streams,
		Type:    packet.TypeData,
		Payload: append([]float64(nil), data...),
	}
	f.streams++
	f.queue = append(f.queue, p)
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
	if _, err := f.live(p.Dst); err != nil {
		return err
	}
	f.queue = append(f.queue, p.Clone())
	return nil
}

// Run delivers the queued tokens first in, first out until the queue
// drains: the tokens injected before it in injection order, then each hop
// in the order it was sent. It returns what each sink unit emitted since
// the last Run, keyed by its address. It fails if maxSteps deliveries occur
// without draining (the livelock guard for cyclic graphs). A failed Run
// drops its pending tokens and outputs; the ledger keeps what ran.
func (f *Fabric) Run() (_ map[packet.Address][][]float64, err error) {
	defer func() {
		if err != nil {
			f.queue = nil
			clear(f.outputs)
		}
	}()
	for steps := 0; len(f.queue) > 0; steps++ {
		if steps >= f.maxSteps {
			return nil, fmt.Errorf("cim: exceeded %d steps with %d tokens pending", f.maxSteps, len(f.queue))
		}
		p := f.queue[0]
		f.queue = f.queue[1:]
		if err := f.deliver(p); err != nil {
			return nil, err
		}
	}
	out := f.outputs
	f.outputs = make(map[packet.Address][][]float64)
	return out, nil
}

// deliver hands the token p to the unit at its destination.
func (f *Fabric) deliver(p *packet.Packet) error {
	u := f.units[p.Dst]
	if u.failed {
		// The unit failed while the token was on its way to it: the token
		// is dropped, which is exactly the paper's containment semantics.
		return nil
	}
	switch p.Type {
	case packet.TypeProgram:
		prog, err := isa.Decode(p.Code)
		if err != nil {
			return fmt.Errorf("cim: decode program packet: %w", err)
		}
		return f.LoadProgram(prog)
	case packet.TypeData:
		return f.applyData(u, p)
	case packet.TypeControl, packet.TypeConfig:
		// Control packets carry no dataflow semantics at this layer.
		return nil
	default:
		return fmt.Errorf("cim: unknown packet type %v", p.Type)
	}
}

func (f *Fabric) applyData(u *Unit, p *packet.Packet) error {
	out, cost, err := u.fn(&u.state, p.Stream, p.Payload)
	if err != nil {
		return fmt.Errorf("cim: %v unit %v: %w", u.Kind, u.addr, err)
	}
	if f.ledger != nil {
		f.ledger.Charge("compute", cost)
	}
	if out == nil {
		// A nil output means the unit did not fire: nothing propagates.
		return nil
	}

	// An explicit route beats the unit's edges.
	dests := u.succs
	if len(p.Route) > 0 {
		next, ok := f.units[p.Route[0]]
		if !ok {
			return fmt.Errorf("cim: explicit route hop %v: no unit there", p.Route[0])
		}
		dests = []*Unit{next}
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
		f.queue = append(f.queue, np)
	}
	return nil
}
