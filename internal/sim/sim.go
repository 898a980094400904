// Package sim is a small discrete-event simulation engine: a virtual
// clock and a priority queue of timestamped events. Events scheduled
// for the same instant fire in FIFO order, which keeps simulations
// deterministic. The cluster and protocol packages build on it.
package sim

import (
	"fmt"
	"math"
)

// Event is a scheduled action. It can be canceled before it fires.
type Event struct {
	time     float64
	seq      uint64
	action   func()
	farg     func(float64) // payload-carrying action (AtCall/ScheduleCall)
	arg      float64
	canceled bool
}

// Cancel prevents the event's action from running. Canceling an event
// that already fired is a no-op — unless the engine has pooling
// enabled, in which case an Event handle is valid only until the
// event fires and Cancel after that point is undefined (the object
// may already describe a different event).
func (ev *Event) Cancel() { ev.canceled = true }

// eventHeap is a binary min-heap of events ordered by (time, seq) —
// a strict total order, so the pop sequence is unique and deterministic.
// Hand-rolled rather than container/heap: the interface dispatch of
// Less/Swap dominated the simulator's hot loop under profiling.
type eventHeap []*Event

// less orders by (time, seq).
func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// push appends ev and sifts it up.
func (h *eventHeap) push(ev *Event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *Event {
	s := *h
	ev := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return ev
}

// Engine is a discrete-event simulator. The zero value is a ready
// engine at time 0.
type Engine struct {
	now     float64
	events  eventHeap
	seq     uint64
	pooling bool
	free    []*Event
}

// New returns an engine with its clock at 0.
func New() *Engine { return &Engine{} }

// SetPooling enables (or disables) event reuse: once an event has
// fired or been discarded as canceled, its Event object goes onto a
// free list and is handed out again by a later Schedule/At. In a
// steady-state simulation this makes event scheduling allocation-free.
// The trade-off is handle lifetime: with pooling on, an *Event
// returned by Schedule/At is valid only until the event fires, and
// Cancel must not be called after that. Simulations that keep handles
// past firing (or cannot prove they don't) should leave pooling off,
// which is the default.
func (e *Engine) SetPooling(on bool) { e.pooling = on }

// Reset returns the clock to 0, discards all pending events
// (recycling them when pooling is enabled) and resets the sequence
// counter, so the engine replays identically to a fresh one while
// keeping its heap and free-list capacity.
func (e *Engine) Reset() {
	if e.pooling {
		for _, ev := range e.events {
			e.recycle(ev)
		}
	}
	for i := range e.events {
		e.events[i] = nil
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of events still scheduled (including
// canceled events not yet discarded).
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs action after the given delay of virtual time. It
// panics on negative or NaN delays.
func (e *Engine) Schedule(delay float64, action func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	return e.At(e.now+delay, action)
}

// ScheduleCall is Schedule for a payload-carrying action: at the fire
// time it invokes fn(arg). Reusing one fn across many events (a
// per-node completion callback, say) avoids the closure allocation a
// plain Schedule would need to capture arg.
func (e *Engine) ScheduleCall(delay float64, fn func(float64), arg float64) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	return e.AtCall(e.now+delay, fn, arg)
}

// At runs action at absolute virtual time t, which must not precede
// the current time.
func (e *Engine) At(t float64, action func()) *Event {
	ev := e.newEvent(t)
	ev.action = action
	e.events.push(ev)
	return ev
}

// AtCall is At for a payload-carrying action: at time t it invokes
// fn(arg). See ScheduleCall.
func (e *Engine) AtCall(t float64, fn func(float64), arg float64) *Event {
	ev := e.newEvent(t)
	ev.farg = fn
	ev.arg = arg
	e.events.push(ev)
	return ev
}

// newEvent checks t, takes an Event from the free list (or allocates
// one) and stamps it with the next sequence number.
func (e *Engine) newEvent(t float64) *Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: cannot schedule at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.time = t
	ev.seq = e.seq
	e.seq++
	return ev
}

// recycle clears a popped event and returns it to the free list when
// pooling is enabled.
func (e *Engine) recycle(ev *Event) {
	if !e.pooling {
		return
	}
	ev.action = nil
	ev.farg = nil
	ev.arg = 0
	ev.canceled = false
	e.free = append(e.free, ev)
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false when no events remain. Canceled events are skipped
// silently.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.time
		// Detach the action before recycling: the action may itself
		// schedule new events, which can reuse this Event object.
		action, farg, arg := ev.action, ev.farg, ev.arg
		e.recycle(ev)
		if farg != nil {
			farg(arg)
		} else {
			action()
		}
		return true
	}
	return false
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires every event with timestamp <= t and then advances the
// clock to t. Events scheduled beyond t stay pending. It panics if t
// precedes the current time.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for len(e.events) > 0 && e.events[0].time <= t {
		if !e.Step() {
			break
		}
	}
	if e.now < t {
		e.now = t
	}
}
