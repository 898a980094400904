package faults

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Transport delivers messages over a discrete-event engine while
// consulting an Injector about each message's fate. It is the
// integration point between the fault layer and the simulation
// engine: callers express "send this, then run that on receipt" and
// the transport applies hop latency, drops, duplicates, jitter and
// sender stalls.
//
// Counters distinguish logical sends (Sent — what a protocol's
// message-complexity bound counts) from physical deliveries.
type Transport struct {
	// Eng is the discrete-event engine driving the simulation.
	Eng *sim.Engine
	// Inj decides message fates; nil injects nothing.
	Inj Injector
	// Hop is the base per-message latency in simulated seconds; a
	// duplicate copy arrives Hop/2 after the first delivery.
	Hop float64
	// Obs counts injected faults by kind; nil disables (free).
	Obs *obs.FaultMetrics

	// Sent counts logical sends (one per Send call).
	Sent int
	// Delivered counts physical deliveries (duplicates included).
	Delivered int
	// Lost counts dropped messages.
	Lost int
	// Duplicated counts messages delivered twice.
	Duplicated int

	sendsBy map[int]int // per-sender send count, for stall schedules
}

// Send performs one logical send from node `from` to node `to` and
// schedules deliver() at the fault-adjusted latency. A dropped
// message is counted as sent but deliver never runs.
func (t *Transport) Send(from, to int, kind string, deliver func()) {
	inj := t.Inj
	if inj == nil {
		inj = None
	}
	m := Message{Seq: t.Sent, From: from, To: to, Kind: kind}
	t.Sent++
	d := inj.Deliver(m)
	delay := t.Hop + d.ExtraDelay
	if inj.Class(from) == NodeStalled {
		if t.sendsBy == nil {
			t.sendsBy = map[int]int{}
		}
		cnt := t.sendsBy[from]
		t.sendsBy[from]++
		if stall, every := inj.Stall(from); every > 0 && cnt%every == 0 {
			delay += stall
			t.Obs.Injected("stall")
		}
	}
	if d.ExtraDelay > 0 {
		t.Obs.Injected("delay")
	}
	if d.Drop {
		t.Lost++
		t.Obs.Injected("drop")
		return
	}
	t.Eng.Schedule(delay, deliver)
	t.Delivered++
	if d.Duplicate {
		t.Obs.Injected("duplicate")
		t.Eng.Schedule(delay+t.Hop/2, deliver)
		t.Delivered++
		t.Duplicated++
	}
}
