package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			e.After(7, recur)
		}
	}
	e.After(0, recur)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 28 {
		t.Fatalf("Now = %v, want 28", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() { fired = true })
	e.At(100, func() { t.Error("event beyond limit fired") })
	e.RunUntil(50)
	if !fired {
		t.Fatal("event before limit did not fire")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(25)
	e.RunFor(25)
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestTimerFiresThenStopIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.AfterTimer(10, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++; e.Stop() })
	e.At(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d events after Stop, want 1", ran)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(0, 10, func() {
		n++
		if n == 4 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 4 {
		t.Fatalf("ticks = %d, want 4", n)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

// A fired timer's handle must be fully inert — even when Stop is called
// from inside the timer's own callback.
func TestTimerStopInsideOwnCallback(t *testing.T) {
	e := NewEngine()
	var tm Timer
	stopped := true
	tm = e.AfterTimer(10, func() { stopped = tm.Stop() })
	e.Run()
	if stopped {
		t.Fatal("Stop from inside the firing callback returned true")
	}
}

// A stale handle from a fired timer must not cancel a newer timer that
// recycled the same slot.
func TestTimerSlotReuseIsolation(t *testing.T) {
	e := NewEngine()
	old := e.AfterTimer(1, func() {})
	e.Run() // fires; slot returns to the freelist
	fired := false
	fresh := e.AfterTimer(5, func() { fired = true }) // reuses the slot
	if old.Stop() {
		t.Fatal("stale handle Stop returned true")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle canceled the reused slot's timer")
	}
	if fresh.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// The zero Timer behaves like an already-fired timer.
func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
	if tm.Deadline() != 0 {
		t.Fatal("zero Timer Deadline non-zero")
	}
}

// Stopping a ticker from inside its own tick must prevent any further
// occurrence and let the engine drain.
func TestTickerStopFromOwnTick(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(0, 7, func() {
		n++
		tk.Stop()
	})
	e.Run()
	if n != 1 {
		t.Fatalf("ticks after self-stop = %d, want 1", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after stopped ticker, want 0", e.Pending())
	}
}

type recordHandler struct {
	got *[]int
}

func (h recordHandler) OnEvent(arg any) { *h.got = append(*h.got, arg.(int)) }

// Typed events and closure events at the same timestamp interleave in
// scheduling order — the determinism contract is flavor-blind.
func TestTypedEventFIFOWithClosures(t *testing.T) {
	e := NewEngine()
	var got []int
	h := recordHandler{&got}
	e.At(5, func() { got = append(got, 0) })
	e.AtEvent(5, h, 1)
	e.At(5, func() { got = append(got, 2) })
	e.AtEvent(5, h, 3)
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed same-time events out of order: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("ran %d events, want 4", len(got))
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(any) {}

// The hot scheduling paths must not allocate (beyond amortized heap
// slice growth, which a warmed engine avoids).
func TestSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	var h nopHandler
	fn := func() {}
	// Warm the heap and slot freelist.
	for i := 0; i < 1024; i++ {
		e.AfterTimer(Duration(i), fn).Stop()
		e.AtEvent(Time(i), h, nil)
	}
	// Warm a lane's ring: four deliveries in flight at once.
	wire := e.NewLane(h)
	for i := 0; i < 4; i++ {
		wire.After(Duration(i), nil)
	}
	e.Run()
	var tm Timer
	allocs := testing.AllocsPerRun(100, func() {
		e.AfterTimer(10, fn).Stop()
		tm = e.ResetTimer(tm, 10, fn) // in place, re-queued every ~5 runs
		e.AtEvent(e.Now()+1, h, nil)
		wire.After(7, &h) // a pointer arg, like a packet: ~4 queued
		e.RunFor(2)
	})
	if allocs > 0 {
		t.Fatalf("scheduling allocated %.1f objects/op, want 0", allocs)
	}
}

// A lane fires its items in deadline order interleaved with heap events
// exactly as AtEvent would, including an item pushed earlier than the
// lane's newest one, and Pending and PeakPending count the items queued
// behind the lane's head.
func TestLaneOrderAndPending(t *testing.T) {
	e := NewEngine()
	var got []int
	h := recordHandler{&got}
	wire := e.NewLane(h)
	wire.At(10, 1)
	wire.At(20, 3)
	wire.At(20, 4)
	e.AtEvent(15, h, 2)
	wire.At(5, 0)  // earlier than the lane's tail: falls back to the heap
	wire.At(30, 6) // queues behind the lane's head again
	e.AtEvent(25, h, 5)
	if e.Pending() != 7 || e.Stats().PeakPending != 7 {
		t.Fatalf("Pending %d, PeakPending %d, want 7 and 7", e.Pending(), e.Stats().PeakPending)
	}
	if len(e.events) != 4 {
		t.Fatalf("event heap holds %d entries, want 4 (one lane head)", len(e.events))
	}
	e.RunUntil(12)
	if e.Pending() != 5 {
		t.Fatalf("Pending after two events = %d, want 5", e.Pending())
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("fired %v, want 0..6 in order", got)
		}
	}
	if len(got) != 7 || e.Pending() != 0 || e.Processed() != 7 || e.Stats().PeakPending != 7 {
		t.Fatalf("fired %d, Pending %d, Processed %d, PeakPending %d; want 7, 0, 7, 7",
			len(got), e.Pending(), e.Processed(), e.Stats().PeakPending)
	}
	// A drained lane takes any deadline as its new head.
	wire.At(e.Now(), 7)
	e.Run()
	if len(got) != 8 || got[7] != 7 {
		t.Fatalf("re-armed lane fired %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: an engine processes every scheduled event exactly once and
// the clock is monotonically non-decreasing across callbacks.
func TestEngineProcessesAllEvents(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		count := 0
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					t.Errorf("clock went backwards: %v after %v", e.Now(), last)
				}
				last = e.Now()
				count++
			})
		}
		e.Run()
		return count == len(delays) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fireLog records each callback run as (label, virtual time).
type fireLog []string

func (l *fireLog) add(e *Engine, label string) {
	*l = append(*l, fmt.Sprintf("%s@%d", label, e.Now()))
}

func wantLog(t *testing.T, got fireLog, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(fireLog(want)) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// A re-arm to a later deadline keeps the timer's one heap entry: it
// fires once, at the new deadline, after one re-queue and no dead pop.
func TestResetTimerLater(t *testing.T) {
	e := NewEngine()
	var log fireLog
	tm := e.AfterTimer(10, func() { log.add(e, "old") })
	e.At(15, func() { log.add(e, "at") })
	tm = e.ResetTimer(tm, 20, func() { log.add(e, "new") })
	if tm.Deadline() != 20 {
		t.Fatalf("Deadline = %v, want 20", tm.Deadline())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (re-arm must not add an entry)", e.Pending())
	}
	e.Run()
	wantLog(t, log, "at@15", "new@20")
	if e.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", e.Processed())
	}
	if st := e.Stats(); st.Requeues != 1 || st.CanceledPops != 0 {
		t.Fatalf("stats = %+v, want 1 re-queue and no canceled pop", st)
	}
}

// A re-arm to the same deadline takes a fresh place in the FIFO order,
// after an event scheduled for that instant in between.
func TestResetTimerEqual(t *testing.T) {
	e := NewEngine()
	var log fireLog
	tm := e.AfterTimer(10, func() { log.add(e, "timer") })
	e.At(10, func() { log.add(e, "at") })
	e.ResetTimer(tm, 10, func() { log.add(e, "timer") })
	e.Run()
	wantLog(t, log, "at@10", "timer@10")
	if st := e.Stats(); st.Requeues != 1 || st.CanceledPops != 0 {
		t.Fatalf("stats = %+v, want 1 re-queue and no canceled pop", st)
	}
}

// A re-arm to an earlier deadline falls back to Stop + AfterTimer: the
// old entry is consumed dead at its own deadline.
func TestResetTimerEarlier(t *testing.T) {
	e := NewEngine()
	var log fireLog
	tm := e.AfterTimer(20, func() { log.add(e, "old") })
	tm = e.ResetTimer(tm, 5, func() { log.add(e, "new") })
	e.Run()
	wantLog(t, log, "new@5")
	if st := e.Stats(); st.Requeues != 0 || st.CanceledPops != 1 {
		t.Fatalf("stats = %+v, want no re-queue and 1 canceled pop", st)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// A stopped timer can be re-armed; the handles before the re-arm are
// stale and cannot cancel it.
func TestResetTimerAfterStop(t *testing.T) {
	e := NewEngine()
	var log fireLog
	old := e.AfterTimer(10, func() { log.add(e, "old") })
	old.Stop()
	fresh := e.ResetTimer(old, 15, func() { log.add(e, "fresh") })
	if old.Stop() {
		t.Fatal("stale handle Stop returned true")
	}
	e.Run()
	wantLog(t, log, "fresh@15")
	if fresh.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// Stop on the handle a re-arm returned cancels the timer for good.
func TestResetTimerThenStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(10, func() { fired = true })
	tm = e.ResetTimer(tm, 30, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on the re-armed handle returned false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if st := e.Stats(); st.CanceledPops != 1 || st.Requeues != 0 {
		t.Fatalf("stats = %+v, want 1 canceled pop and no re-queue", st)
	}
}

// Re-arming a fired handle — after the fact or from inside its own
// callback — arms a fresh timer.
func TestResetTimerAfterFire(t *testing.T) {
	e := NewEngine()
	var log fireLog
	tm := e.AfterTimer(10, func() { log.add(e, "first") })
	e.Run()
	tm = e.ResetTimer(tm, 5, func() { log.add(e, "second") })
	e.Run()
	wantLog(t, log, "first@10", "second@15")

	log = nil
	n := 0
	var fn func()
	fn = func() {
		log.add(e, "self")
		if n++; n < 3 {
			tm = e.ResetTimer(tm, 10, fn)
		}
	}
	tm = e.ResetTimer(tm, 10, fn)
	e.Run()
	wantLog(t, log, "self@25", "self@35", "self@45")
}

// sched is the scheduling surface a script drives: the Engine, or the
// single-heap reference it is checked against.
type sched interface {
	Now() Time
	At(t Time, fn func())
	AtEvent(t Time, h Handler, arg any)
	laneAt(k int, t Time, arg any)
	rearm(k int, d Duration, fn func())
	stopTimer(k int) bool
	Stop()
	RunUntil(t Time)
	Run()
	Processed() uint64
	Pending() int
}

// engSched drives an Engine. With inPlace it re-arms timers through
// ResetTimer, else through Stop + AfterTimer. It counts lane pushes
// that joined a lane's ring and those that fell back to the heap.
type engSched struct {
	*Engine
	inPlace           bool
	lanes             []*Lane
	timers            [4]Timer
	queued, fallbacks int
}

func newEngSched(inPlace bool, laneHandlers []Handler) *engSched {
	s := &engSched{Engine: NewEngine(), inPlace: inPlace}
	for _, h := range laneHandlers {
		s.lanes = append(s.lanes, s.NewLane(h))
	}
	return s
}

func (s *engSched) laneAt(k int, t Time, arg any) {
	if l := s.lanes[k]; l.armed {
		if t < l.tail {
			s.fallbacks++
		} else {
			s.queued++
		}
	}
	s.lanes[k].At(t, arg)
}

func (s *engSched) rearm(k int, d Duration, fn func()) {
	if s.inPlace {
		s.timers[k] = s.ResetTimer(s.timers[k], d, fn)
		return
	}
	s.timers[k].Stop()
	s.timers[k] = s.AfterTimer(d, fn)
}

func (s *engSched) stopTimer(k int) bool { return s.timers[k].Stop() }

// refSched is the reference scheduler: every pending event — timer
// entries, dead or alive, and lane items alike — in one binary heap
// ordered by (timestamp, scheduling order), timers re-armed as Stop +
// AfterTimer, lane items as plain typed events.
type refSched struct {
	now       Time
	seq       uint64
	q         []*refEntry
	processed uint64
	stopped   bool
	peak      int
	deadPops  uint64
	lanes     []Handler
	timers    [4]*refEntry
}

type refEntry struct {
	at              Time
	seq             uint64
	run             func()
	canceled, fired bool
}

func (r *refSched) less(i, j int) bool {
	a, b := r.q[i], r.q[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (r *refSched) push(t Time, run func()) *refEntry {
	if t < r.now {
		panic("refSched: scheduling in the past")
	}
	r.seq++
	ent := &refEntry{at: t, seq: r.seq, run: run}
	r.q = append(r.q, ent)
	for i := len(r.q) - 1; i > 0 && r.less(i, (i-1)/2); i = (i - 1) / 2 {
		r.q[i], r.q[(i-1)/2] = r.q[(i-1)/2], r.q[i]
	}
	r.peak = max(r.peak, len(r.q))
	return ent
}

func (r *refSched) pop() *refEntry {
	top, n := r.q[0], len(r.q)-1
	r.q[0] = r.q[n]
	r.q = r.q[:n]
	for i := 0; ; {
		m := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && r.less(c, m) {
				m = c
			}
		}
		if m == i {
			break
		}
		r.q[i], r.q[m] = r.q[m], r.q[i]
		i = m
	}
	return top
}

func (r *refSched) Now() Time                          { return r.now }
func (r *refSched) At(t Time, fn func())               { r.push(t, fn) }
func (r *refSched) AtEvent(t Time, h Handler, arg any) { r.push(t, func() { h.OnEvent(arg) }) }
func (r *refSched) laneAt(k int, t Time, arg any)      { r.AtEvent(t, r.lanes[k], arg) }
func (r *refSched) Stop()                              { r.stopped = true }
func (r *refSched) Processed() uint64                  { return r.processed }
func (r *refSched) Pending() int                       { return len(r.q) }

func (r *refSched) rearm(k int, d Duration, fn func()) {
	r.stopTimer(k)
	r.timers[k] = r.push(r.now+d, fn)
}

func (r *refSched) stopTimer(k int) bool {
	ent := r.timers[k]
	if ent == nil || ent.fired || ent.canceled {
		return false
	}
	ent.canceled = true
	return true
}

func (r *refSched) RunUntil(t Time) {
	for !r.stopped && len(r.q) > 0 && r.q[0].at <= t {
		ent := r.pop()
		r.now = ent.at
		if ent.canceled {
			r.deadPops++
			continue
		}
		ent.fired = true
		r.processed++
		ent.run()
	}
	if !r.stopped && r.now < t {
		r.now = t
	}
}

func (r *refSched) Run() { r.RunUntil(MaxTime) }

// script drives a scheduler through a random schedule of timer re-arms
// and stops, closure and typed events, pushes onto two lanes (some
// earlier than the lane's newest item), engine stops and bounded runs,
// many issued from inside callbacks. Every firing logs its label, the
// clock, and the processed count; pending logs Pending() at each firing.
// The same seed must give the same logs on every scheduler.
type script struct {
	s        sched
	rng      *Rand
	budget   int
	fire     [4]func()
	laneTail [2]Time
	log      fireLog
	pending  []int
}

// scriptEvent is a typed-event handler that logs and acts on.
type scriptEvent struct {
	s    *script
	kind string
}

func (h scriptEvent) OnEvent(arg any) { h.s.fired(fmt.Sprintf("%s%d", h.kind, arg)) }

func newScript(seed uint64, mk func(laneHandlers []Handler) sched) *script {
	s := &script{rng: NewRand(seed), budget: 400}
	s.s = mk([]Handler{scriptEvent{s, "lane0."}, scriptEvent{s, "lane1."}})
	for k := range s.fire {
		label := fmt.Sprintf("t%d", k)
		s.fire[k] = func() { s.fired(label) }
	}
	return s
}

func (s *script) fired(label string) {
	s.log = append(s.log, fmt.Sprintf("%s@%d#%d", label, s.s.Now(), s.s.Processed()))
	s.pending = append(s.pending, s.s.Pending())
	s.act()
}

// act performs one random scheduling action while the budget lasts.
func (s *script) act() {
	if s.budget <= 0 {
		return
	}
	s.budget--
	now := s.s.Now()
	k := s.rng.Intn(len(s.fire))
	d := Duration(s.rng.Intn(40))
	switch s.rng.Intn(10) {
	case 0, 1, 2:
		s.s.rearm(k, d, s.fire[k])
	case 3:
		s.log = append(s.log, fmt.Sprintf("stop%d=%v", k, s.s.stopTimer(k)))
	case 4:
		label := fmt.Sprintf("at%d", s.budget)
		s.s.At(now+d, func() { s.fired(label) })
	case 5:
		s.s.AtEvent(now+d, scriptEvent{s, "ev"}, s.budget)
	case 6, 7:
		// A wire's deliveries: mostly at or after the lane's newest
		// item, sometimes anywhere from now on.
		l := k & 1
		t := max(now, s.laneTail[l]) + Duration(s.rng.Intn(8))
		if s.rng.Intn(4) == 0 {
			t = now + d
		}
		s.laneTail[l] = max(s.laneTail[l], t)
		s.s.laneAt(l, t, s.budget)
	case 8:
		if s.rng.Intn(100) == 0 {
			s.log = append(s.log, "halt")
			s.s.Stop()
		}
	case 9:
		// no-op: lets a callback end a chain
	}
}

func (s *script) run() {
	for s.budget > 0 {
		s.act()
		if s.rng.Intn(4) == 0 {
			s.s.RunUntil(s.s.Now() + Duration(s.rng.Intn(30)))
		}
	}
	s.s.Run()
}

func engineScript(seed uint64, inPlace bool) (*script, *engSched) {
	var es *engSched
	s := newScript(seed, func(lh []Handler) sched {
		es = newEngSched(inPlace, lh)
		return es
	})
	return s, es
}

func refScript(seed uint64) (*script, *refSched) {
	var rs *refSched
	s := newScript(seed, func(lh []Handler) sched {
		rs = &refSched{lanes: lh}
		return rs
	})
	return s, rs
}

// Property: re-arming in place fires the same callbacks in the same
// order at the same virtual times, with the same Processed count and
// Stop results, as Stop + AfterTimer — and never pops more dead entries.
func TestResetTimerMatchesStopAfterTimer(t *testing.T) {
	var requeues uint64
	f := func(seed uint64) bool {
		got, ge := engineScript(seed, true)
		ref, re := engineScript(seed, false)
		got.run()
		ref.run()
		requeues += ge.Stats().Requeues
		if fmt.Sprint(got.log) != fmt.Sprint(ref.log) {
			t.Errorf("seed %d: in-place log\n%v\nreference log\n%v", seed, got.log, ref.log)
			return false
		}
		if g, r := ge.Stats(), re.Stats(); g.CanceledPops > r.CanceledPops || g.PeakPending > r.PeakPending {
			t.Errorf("seed %d: stats %+v, reference %+v", seed, g, r)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if requeues == 0 {
		t.Fatal("no script re-queued an entry: the in-place path went untested")
	}
}

// Property: the engine — two heaps plus lanes — fires exactly what a
// single heap of every event fires: same callbacks, same order, same
// clock and processed count at each firing. Re-arming through Stop +
// AfterTimer, it also holds exactly as many events pending at every
// firing as the reference heap has entries (lane items included), and
// pops exactly its dead entries.
func TestEngineMatchesSingleHeapReference(t *testing.T) {
	var queued, fallbacks int
	f := func(seed uint64) bool {
		ref, rs := refScript(seed)
		ref.run()
		for _, inPlace := range []bool{false, true} {
			got, es := engineScript(seed, inPlace)
			got.run()
			queued += es.queued
			fallbacks += es.fallbacks
			if fmt.Sprint(got.log) != fmt.Sprint(ref.log) {
				t.Errorf("seed %d in-place %v: engine log\n%v\nreference log\n%v", seed, inPlace, got.log, ref.log)
				return false
			}
			st := es.Stats()
			if inPlace {
				if st.CanceledPops > rs.deadPops || st.PeakPending > rs.peak {
					t.Errorf("seed %d in place: stats %+v, reference %d dead pops, peak %d", seed, st, rs.deadPops, rs.peak)
					return false
				}
				continue
			}
			if fmt.Sprint(got.pending) != fmt.Sprint(ref.pending) || es.Pending() != rs.Pending() {
				t.Errorf("seed %d: pending at firings\n%v (end %d)\nreference\n%v (end %d)",
					seed, got.pending, es.Pending(), ref.pending, rs.Pending())
				return false
			}
			if st.CanceledPops != rs.deadPops || st.PeakPending != rs.peak || st.Requeues != 0 {
				t.Errorf("seed %d: stats %+v, reference %d dead pops, peak %d", seed, st, rs.deadPops, rs.peak)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if queued == 0 || fallbacks == 0 {
		t.Fatalf("lane pushes: %d queued behind a head, %d fell back to the heap; want both > 0", queued, fallbacks)
	}
}
