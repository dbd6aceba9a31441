// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulators in this repository (the shared-memory switch model, the
// transport stack, and the network-level experiments) are driven by a
// single Engine: a virtual clock plus a priority event queue. Events
// scheduled for the same instant fire in scheduling order, which makes
// every run bit-for-bit reproducible given the same seed.
//
// # Engine architecture
//
// Pending events live in two hand-rolled 4-ary min-heaps of value-type
// events — no per-event heap allocation and no container/heap interface
// boxing — plus one FIFO ring per Lane. A 4-ary layout halves the tree
// depth of a binary heap, turning pop's cache-missing parent-child
// pointer chases into mostly-linear scans of four adjacent siblings;
// push stays O(log4 n). Ordering is (timestamp, seq): seq is a
// monotonically increasing scheduling counter, so same-timestamp events
// fire in FIFO scheduling order. Each step fires the smaller of the two
// heap tops, so the split changes no firing order, only heap sizes.
//
//   - The event heap holds closure events, typed events, and the head
//     of every non-empty Lane.
//   - The timer heap holds the entries of cancelable timers
//     (AfterTimer/ResetTimer). A simulation parks one timer per live
//     flow — the transport RTO — and almost none of them ever fire, so
//     keeping them apart spares every packet event a sift through them.
//   - A Lane queues the typed events of one Handler whose deadlines
//     never decrease, such as the deliveries at the far end of one
//     link. Only its head sits in the event heap; when the head fires,
//     the next item replaces it with a single sift-down. A push earlier
//     than the lane's newest item becomes an ordinary heap entry, so
//     the order never depends on the caller keeping its promise.
//
// Events come in two flavors:
//
//   - Closure events (At/After/AfterTimer/ResetTimer/Every): the event
//     carries a func(). Convenient, but each distinct capture allocates
//     a closure at the call site.
//   - Typed events (AtEvent/AfterEvent and Lane.At/After): the event
//     carries a Handler interface plus an opaque arg. Hot paths (switch
//     ports, host NICs) implement Handler once and schedule with zero
//     allocations — storing a pointer in an `any` does not allocate.
//
// Timers live in a freelist of engine slots; a Timer handle is a value
// (slot index + generation), so arming one performs no heap allocation.
// The generation is bumped whenever the slot's heap entry is consumed or
// the timer is re-armed, so Stop on a handle held after firing, slot
// reuse or a re-arm harmlessly reports false. Stop cancels lazily: the
// dead entry stays in the timer heap until its deadline and is then
// consumed without running. A timer that is pushed back again and again
// — the transport RTO, re-armed on every ACK — uses ResetTimer instead,
// which keeps its one heap entry: the slot records the timer's current
// (timestamp, seq) key, and when the entry reaches the top of the timer
// heap under an older key it is re-keyed in place. Every event popped
// before that sorts before the new key, so the firing order is exactly
// that of Stop + AfterTimer, without the dead entries.
package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Handy duration units, mirroring time.Nanosecond etc. for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// MarshalJSON renders the value in Go duration syntax ("150µs", "2ms"),
// so serialized scenario specs stay human-editable. Nanosecond-exact
// round trip: time.Duration.String always parses back to the same count.
func (t Time) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(t).String())
}

// UnmarshalJSON accepts Go duration syntax ("2ms") or a bare integer
// nanosecond count.
func (t *Time) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("sim: bad duration %q: %w", s, err)
		}
		*t = Time(d.Nanoseconds())
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("sim: duration must be a string like \"2ms\" or integer nanoseconds, got %s", data)
	}
	*t = Time(ns)
	return nil
}

// Handler receives typed events scheduled with AtEvent/AfterEvent. A
// single object may multiplex several event kinds by distinguishing on
// arg (e.g. nil vs a packet pointer).
type Handler interface {
	OnEvent(arg any)
}

// event is a scheduled callback, stored by value in a heap slice. seq
// breaks ties so that events at the same timestamp run in FIFO
// scheduling order. Exactly one of fn/h is set. slot tags the entry: a
// positive slot is the 1-based timer-slot index of a timer entry, a
// negative one the 1-based index of the Lane whose head it is, and 0
// marks a plain event.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	h    Handler
	arg  any
	slot int32
}

// evLess orders events by (timestamp, scheduling order).
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerSlot is the engine-side state of one cancelable timer. Slots are
// recycled through a freelist once their heap entry is consumed; gen
// invalidates stale Timer handles across reuses and re-arms. (at, seq)
// is the timer's current deadline key and heapAt the timestamp of its
// one heap entry; the entry's key lags (at, seq) after an in-place
// ResetTimer until it reaches the top of the heap, and fn holds the
// re-armed callback until the entry is re-keyed with it.
type timerSlot struct {
	gen      uint64
	at       Time
	seq      uint64
	heapAt   Time
	fn       func()
	canceled bool
}

// Stats counts the engine's queue housekeeping: heap work that runs no
// event. The counts are a deterministic function of the schedule.
type Stats struct {
	// CanceledPops counts heap entries of stopped timers consumed
	// without running.
	CanceledPops uint64
	// Requeues counts entries of timers re-armed in place that reached
	// the top of the heap under an older key and were re-keyed.
	Requeues uint64
	// PeakPending is the largest number of events pending at once: heap
	// entries (dead timer entries included) plus queued lane items.
	PeakPending int
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are deterministic single-goroutine
// programs by design (run concurrent sweeps with one Engine per
// goroutine instead).
type Engine struct {
	now       Time
	seq       uint64
	events    evHeap // plain events and lane heads
	timers    evHeap // timer entries
	pending   int    // heap entries plus lane items behind their heads
	processed uint64
	stopped   bool

	slots     []timerSlot
	freeSlots []int32
	lanes     []*Lane // indexed by -slot-1 of a lane-head entry

	stats Stats
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events that have not yet fired.
func (e *Engine) Pending() int { return e.pending }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Stats returns the queue housekeeping counters.
func (e *Engine) Stats() Stats { return e.stats }

// added counts one newly scheduled event toward Pending and its peak.
func (e *Engine) added() {
	e.pending++
	if e.pending > e.stats.PeakPending {
		e.stats.PeakPending = e.pending
	}
}

// --- 4-ary heap ------------------------------------------------------------

// evHeap is a 4-ary min-heap of events under evLess.
type evHeap []event

// push appends ev and restores the heap property by sifting up.
func (h *evHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&ev, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
}

// pop removes and returns the earliest event.
func (h *evHeap) pop() event {
	s := *h
	root := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // release fn/h/arg references
	*h = s[:n]
	if n > 0 {
		h.replaceTop(last)
	}
	return root
}

// replaceTop overwrites the earliest event with ev and sifts it down:
// at each level it picks the smallest of up to four adjacent children.
func (h evHeap) replaceTop(ev event) {
	s := h
	n := len(s)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if evLess(&s[k], &s[m]) {
				m = k
			}
		}
		if !evLess(&s[m], &ev) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = ev
}

// --- Scheduling ------------------------------------------------------------

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: that is always a simulation bug, not a recoverable state.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
	e.added()
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	e.At(e.now+d, fn)
}

// AtEvent schedules a typed event: h.OnEvent(arg) runs at absolute time
// t. Unlike At, no closure is involved — callers that implement Handler
// schedule without any allocation.
func (e *Engine) AtEvent(t Time, h Handler, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, h: h, arg: arg})
	e.added()
}

// AfterEvent schedules h.OnEvent(arg) d nanoseconds from now.
func (e *Engine) AfterEvent(d Duration, h Handler, arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	e.AtEvent(e.now+d, h, arg)
}

// Timer is a cancelable scheduled event. It is a small value: copy it
// freely. The zero Timer is valid and behaves like an already-fired one.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint64
	at   Time
}

// Stop cancels the timer. It is safe to call Stop multiple times and
// after the timer has fired (in which case it has no effect). It reports
// whether the call prevented the timer from firing.
func (t Timer) Stop() bool {
	if t.e == nil {
		return false
	}
	sl := &t.e.slots[t.slot]
	if sl.gen != t.gen || sl.canceled {
		return false // fired, or slot reused by a newer timer
	}
	sl.canceled = true
	return true
}

// Deadline returns the virtual time at which the timer fires.
func (t Timer) Deadline() Time { return t.at }

// AfterTimer schedules fn after d and returns a handle that can cancel
// it. Arming allocates nothing: the timer state lives in a recycled
// engine slot and the handle is returned by value.
func (e *Engine) AfterTimer(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	var si int32
	if n := len(e.freeSlots); n > 0 {
		si = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		e.slots = append(e.slots, timerSlot{})
		si = int32(len(e.slots) - 1)
	}
	at := e.now + d
	e.seq++
	sl := &e.slots[si]
	sl.gen++
	sl.at, sl.seq, sl.heapAt, sl.canceled = at, e.seq, at, false
	e.timers.push(event{at: at, seq: e.seq, fn: fn, slot: si + 1})
	e.added()
	return Timer{e: e, slot: si, gen: sl.gen, at: at}
}

// ResetTimer re-arms t to run fn after d and returns the handle that
// replaces t; t itself goes stale. Events fire exactly as after
// t.Stop() followed by AfterTimer(d, fn), but while t is pending and
// the new deadline is not before its heap entry's, the timer keeps that
// entry and only its slot's key moves — no dead entry is left behind.
// A fired or zero t, a reused slot, or an earlier deadline falls back to
// Stop + AfterTimer.
func (e *Engine) ResetTimer(t Timer, d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	if t.e == e {
		sl := &e.slots[t.slot]
		if at := e.now + d; sl.gen == t.gen && at >= sl.heapAt {
			e.seq++
			sl.gen++
			sl.at, sl.seq, sl.fn, sl.canceled = at, e.seq, fn, false
			return Timer{e: e, slot: t.slot, gen: sl.gen, at: at}
		}
	}
	t.Stop()
	return e.AfterTimer(d, fn)
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest pending event: the smaller of the two heap
// tops. It reports false when nothing is pending at or before limit or
// the engine was stopped.
func (e *Engine) step(limit Time) bool {
	if e.stopped {
		return false
	}
	if len(e.timers) > 0 && (len(e.events) == 0 || evLess(&e.timers[0], &e.events[0])) {
		if e.timers[0].at > limit {
			return false
		}
		return e.stepTimer()
	}
	if len(e.events) == 0 || e.events[0].at > limit {
		return false
	}
	var ev event
	if tag := e.events[0].slot; tag < 0 {
		// A lane head: the lane's next item, if any, takes its place.
		ev = e.events[0]
		l := e.lanes[-tag-1]
		if l.n > 0 {
			e.events.replaceTop(l.next())
		} else {
			e.events.pop()
			l.armed = false
		}
	} else {
		ev = e.events.pop()
	}
	e.pending--
	e.now = ev.at
	e.processed++
	if ev.h != nil {
		ev.h.OnEvent(ev.arg)
	} else {
		ev.fn()
	}
	return true
}

// stepTimer consumes the top of the timer heap, the earliest pending
// event.
func (e *Engine) stepTimer() bool {
	top := &e.timers[0]
	sl := &e.slots[top.slot-1]
	if top.seq != sl.seq && !sl.canceled {
		// Re-armed in place since this entry was pushed: move it to the
		// timer's current key. The clock stays put and nothing runs —
		// the entry is not an event of its own.
		e.stats.Requeues++
		sl.heapAt = sl.at
		e.timers.replaceTop(event{at: sl.at, seq: sl.seq, fn: sl.fn, slot: top.slot})
		sl.fn = nil
		return true
	}
	ev := e.timers.pop()
	e.pending--
	e.now = ev.at
	// Consuming the entry retires the slot: bump the generation so a
	// later Stop (including from inside the callback) reports false,
	// then recycle the slot.
	sl.gen++
	e.freeSlots = append(e.freeSlots, ev.slot-1)
	if sl.canceled {
		sl.canceled = false
		sl.fn = nil // set if it was re-armed in place before Stop
		e.stats.CanceledPops++
		return true // canceled timer: consume silently
	}
	e.processed++
	ev.fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.step(MaxTime) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if no event lands there).
func (e *Engine) RunUntil(t Time) {
	for e.step(t) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }

// Every schedules fn at t, t+period, t+2*period, ... until the returned
// Ticker is stopped. fn runs before the next occurrence is scheduled.
type Ticker struct {
	stopped bool
}

// Stop halts the ticker after the current occurrence (if any) completes.
// Stopping from inside the tick callback is safe and prevents the next
// occurrence from being scheduled.
func (t *Ticker) Stop() { t.stopped = true }

// Every starts a periodic event with the given start offset and period.
// The tick closure is allocated once; each recurrence reuses it, so a
// running ticker schedules with zero per-tick allocations.
func (e *Engine) Every(start Duration, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	tk := &Ticker{}
	var tick func()
	tick = func() {
		if tk.stopped {
			return
		}
		fn()
		if !tk.stopped {
			e.After(period, tick)
		}
	}
	e.After(start, tick)
	return tk
}

// --- Lanes -----------------------------------------------------------------

// Lane is a FIFO of typed events for one Handler whose deadlines never
// decrease, such as the deliveries at the far end of one link. Items
// fire in exactly the order AtEvent would give them, but only the
// lane's head occupies an event-heap entry: the rest wait in a ring and
// each replaces the head as it fires, at the cost of one sift-down.
// A Lane lives as long as its engine.
type Lane struct {
	e     *Engine
	h     Handler
	tag   int32 // slot tag of the lane's head entry
	armed bool  // the head is in the event heap
	tail  Time  // deadline of the newest item handed to the lane

	ring []laneItem // items behind the head; len is a power of two
	head int
	n    int
}

// laneItem is a queued lane event; the handler is the lane's.
type laneItem struct {
	at  Time
	seq uint64
	arg any
}

// NewLane returns an empty lane whose events run h.OnEvent(arg).
func (e *Engine) NewLane(h Handler) *Lane {
	l := &Lane{e: e, h: h}
	e.lanes = append(e.lanes, l)
	l.tag = -int32(len(e.lanes))
	return l
}

// At schedules h.OnEvent(arg) at absolute time t, firing exactly as
// AtEvent(t, h, arg) would. A t earlier than the lane's newest item
// still fires in order, as an ordinary heap entry.
func (l *Lane) At(t Time, arg any) {
	e := l.e
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	switch {
	case !l.armed:
		l.armed, l.tail = true, t
		e.events.push(event{at: t, seq: e.seq, h: l.h, arg: arg, slot: l.tag})
	case t >= l.tail:
		l.tail = t
		if l.n == len(l.ring) {
			l.grow()
		}
		l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneItem{at: t, seq: e.seq, arg: arg}
		l.n++
	default:
		e.events.push(event{at: t, seq: e.seq, h: l.h, arg: arg})
	}
	e.added()
}

// After schedules h.OnEvent(arg) d nanoseconds from now.
func (l *Lane) After(d Duration, arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	l.At(l.e.now+d, arg)
}

// next dequeues the item behind the head as the lane's new head entry.
func (l *Lane) next() event {
	it := &l.ring[l.head]
	ev := event{at: it.at, seq: it.seq, h: l.h, arg: it.arg, slot: l.tag}
	*it = laneItem{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return ev
}

// grow doubles the ring, unwrapping the queued items to its front.
func (l *Lane) grow() {
	ring := make([]laneItem, max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}
