package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// TestSameInstantWakeupFIFO: processes whose wakeups land on the same
// instant run in the order the wakeups were scheduled (seq order), for
// both heap-resident events (scheduled in the past) and immediate events.
func TestSameInstantWakeupFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			p.Sleep(10 * Nanosecond) // all wakeups collide at t=10ns
			order = append(order, i)
		})
	}
	env.Run(0)
	if len(order) != 8 {
		t.Fatalf("ran %d procs, want 8", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wake order %v, want 0..7 (FIFO by schedule order)", order)
		}
	}
}

// TestSameInstantImmediateFIFO covers the immediate-ring path: wakeups
// scheduled *at* the current instant (signal fire) run in FIFO order
// after all events that were already in the heap for that instant.
func TestSameInstantImmediateFIFO(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var order []string
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		env.Go(name, func(p *Proc) {
			sig.Wait(p)
			order = append(order, name)
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		sig.Fire() // schedules 4 immediate wakeups at t=5ns
	})
	env.Run(0)
	want := []string{"a", "b", "c", "d"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestDrainAppendWakesAtMostN: draining n items must release at most n
// blocked putters; the rest stay parked.
func TestDrainAppendWakesAtMostN(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 2)
	var completed []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("putter", func(p *Proc) {
			q.Put(p, i)
			completed = append(completed, i)
		})
	}
	var drained []int
	env.At(Time(10*Nanosecond), func() {
		drained = q.DrainAppend(nil, 2)
	})
	env.Run(0)
	// Putters 0 and 1 fill the queue without blocking; the drain of two
	// items wakes putters 2 and 3 (FIFO); putter 4 must still be parked.
	if len(drained) != 2 || drained[0] != 0 || drained[1] != 1 {
		t.Fatalf("drained %v, want [0 1]", drained)
	}
	if len(completed) != 4 {
		t.Fatalf("%d putters completed (%v), want 4: drain of 2 must wake at most 2",
			len(completed), completed)
	}
	if q.putters.Len() != 1 {
		t.Fatalf("%d putters still parked, want 1", q.putters.Len())
	}
}

// TestTryOpsFromSchedulerContext: TryPut and TryGet never block, so they
// are callable from At/After callbacks (scheduler context), and a TryPut
// there still wakes a blocked getter.
func TestTryOpsFromSchedulerContext(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got int
	env.Go("getter", func(p *Proc) {
		got = q.Get(p) // blocks until the callback's TryPut
	})
	env.At(Time(5*Nanosecond), func() {
		if !q.TryPut(42) {
			t.Error("TryPut failed on an unbounded queue")
		}
	})
	var polled, ok = 0, false
	env.At(Time(10*Nanosecond), func() {
		q.TryPut(7)
		polled, ok = q.TryGet()
	})
	env.Run(0)
	if got != 42 {
		t.Errorf("getter received %d, want 42 (woken by scheduler-context TryPut)", got)
	}
	if !ok || polled != 7 {
		t.Errorf("TryGet from callback = %d,%v, want 7,true", polled, ok)
	}
}

// TestNegativeSleepStillYields: a Sleep with a negative (or zero)
// duration must not let the process run straight through — it yields,
// giving already-scheduled same-instant events their turn first.
func TestNegativeSleepStillYields(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("p1", func(p *Proc) {
		order = append(order, "p1-before")
		p.Sleep(-5 * Nanosecond)
		order = append(order, "p1-after")
	})
	env.Go("p2", func(p *Proc) {
		order = append(order, "p2")
	})
	env.Run(0)
	want := []string{"p1-before", "p2", "p1-after"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v: negative Sleep must yield", order, want)
		}
	}
	if env.Now() != 0 {
		t.Errorf("clock at %v after negative sleep, want 0 (clamped)", env.Now())
	}
}

// TestDrainedQueueDoesNotGrowBacking: an unbounded queue cycled through
// put/get bursts must reach a steady-state ring size, not grow its
// backing array with every burst (the old shift-by-reslice
// representation reallocated continuously).
func TestDrainedQueueDoesNotGrowBacking(t *testing.T) {
	env := NewEnv()
	q := NewQueue[*int](env, 0)
	env.Go("churn", func(p *Proc) {
		v := 1
		for i := 0; i < 1000; i++ {
			for j := 0; j < 3; j++ {
				q.Put(p, &v)
			}
			for j := 0; j < 3; j++ {
				q.Get(p)
			}
			p.Sleep(Nanosecond)
		}
	})
	env.Run(0)
	if c := q.items.Cap(); c > 8 {
		t.Errorf("ring capacity %d after 1000 bursts of 3, want <= 8", c)
	}
	if q.items.Len() != 0 {
		t.Fatalf("queue not drained: %d items", q.items.Len())
	}
}

// TestRingClearsVacatedSlots: PopFront must zero the vacated slot so a
// drained ring of pointers retains nothing (the old slice queue kept the
// head reference alive in the backing array).
func TestRingClearsVacatedSlots(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 20; i++ {
		v := i
		r.PushBack(&v)
	}
	for i := 0; i < 5; i++ {
		if p := r.PopFront(); *p != i {
			t.Fatalf("PopFront = %d, want %d", *p, i)
		}
	}
	live := 0
	for i := 0; i < len(r.buf); i++ {
		if r.buf[i] != nil {
			live++
		}
	}
	if live != r.Len() {
		t.Errorf("%d live pointers in backing array, want %d: vacated slots must be cleared",
			live, r.Len())
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	for i := 0; i < len(r.buf); i++ {
		if r.buf[i] != nil {
			t.Fatalf("drained ring retains a pointer at slot %d", i)
		}
	}
}

// TestRingWraparound exercises growth while head > 0 (the copy-out in
// grow must linearize the wrapped contents) and FIFO order across wraps.
func TestRingWraparound(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.PushBack(next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := r.PopFront(); got != expect {
				t.Fatalf("PopFront = %d, want %d", got, expect)
			}
			expect++
		}
	}
	push(6)
	pop(4)   // head advances
	push(10) // wraps, then grows with head > 0
	pop(12)
	push(3)
	pop(3)
	if r.Len() != 0 {
		t.Fatalf("ring not empty: %d", r.Len())
	}
}

// refQueue is the ordering oracle for the event store: a plain slice
// kept sorted by (at, seq), each push inserted at its binary-searched
// position.
type refQueue []event

func (q *refQueue) push(ev event) {
	i, _ := slices.BinarySearchFunc(*q, ev, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	*q = slices.Insert(*q, i, ev)
}

func (q refQueue) min() event { return q[0] }

func (q *refQueue) pop() event {
	ev := (*q)[0]
	*q = (*q)[1:]
	return ev
}

// TestEventHeapMatchesSortedSlice: random interleavings of pushes
// (quantized offsets to force same-instant ties, plus far-future times)
// and pops must yield the exact same (at, seq) sequence from the heap
// and from the sorted-slice oracle, with peekAt agreeing before every
// pop.
func TestEventHeapMatchesSortedSlice(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		var h eventHeap
		var ref refQueue
		rng := uint64(trial)*0x5851f42d4c957f2d + 1
		now := Time(0)
		var seq uint64
		step := func(what string) {
			t.Helper()
			want := ref.min()
			if at, ok := h.peekAt(); !ok || at != want.at {
				t.Fatalf("trial %d %s: peekAt = (%d, %v), oracle min %d", trial, what, at, ok, want.at)
			}
			he, re := h.pop(), ref.pop()
			if he.at != re.at || he.seq != re.seq {
				t.Fatalf("trial %d %s: heap popped (at=%d seq=%d), oracle (at=%d seq=%d)",
					trial, what, he.at, he.seq, re.at, re.seq)
			}
			now = he.at
		}
		for op := 0; op < 4000; op++ {
			if len(ref) == 0 || splitmix64(&rng)%3 != 0 {
				n := 1 + int(splitmix64(&rng)%4)
				for i := 0; i < n; i++ {
					var off Time
					switch splitmix64(&rng) % 8 {
					case 0, 1, 2, 3:
						// Quantized near offsets: collisions at one instant
						// are common.
						off = Time(1+splitmix64(&rng)%8) * 1000
					case 4, 5:
						off = Time(1 + splitmix64(&rng)%1_000_000)
					case 6:
						off = Time(1<<40) + Time(splitmix64(&rng)%4)*1000
					default:
						off = Time(1<<61) + Time(splitmix64(&rng)%2)
					}
					seq++
					ev := event{at: now + off, seq: seq}
					h.push(ev)
					ref.push(ev)
				}
			} else {
				step("interleaved")
			}
		}
		for len(ref) > 0 {
			step("drain")
		}
		if _, ok := h.peekAt(); ok || len(h) != 0 {
			t.Fatalf("trial %d: heap holds %d events after drain", trial, len(h))
		}
	}
}

// refSched mirrors Env's event loop semantics on the sorted-slice
// oracle: same clamp-to-now rule, same imm ring for same-instant
// schedules, same stored-before-imm rule at one instant, same horizon
// behavior. TestEnvMatchesReferenceScheduler runs identical callback
// programs through a real Env and through this, and compares execution
// logs.
type refSched struct {
	now     Time
	seq     uint64
	pending refQueue
	imm     Ring[event]
}

func (r *refSched) schedule(at Time, fn func()) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev := event{at: at, seq: r.seq, fn: fn}
	if at == r.now {
		r.imm.PushBack(ev)
		return
	}
	r.pending.push(ev)
}

func (r *refSched) run(until Time) {
	for {
		var ev event
		switch {
		case len(r.pending) > 0 && r.pending.min().at == r.now:
			ev = r.pending.pop()
		case r.imm.Len() > 0:
			ev = r.imm.PopFront()
		case len(r.pending) > 0:
			if until > 0 && r.pending.min().at > until {
				r.now = until
				return
			}
			ev = r.pending.pop()
		default:
			return
		}
		r.now = ev.at
		ev.fn()
	}
}

// schedProgram is a deterministic self-scheduling callback workload:
// each executed callback logs (now, id) and schedules 0–2 children at
// offsets drawn from its id-seeded generator — zero offsets (imm path),
// near offsets (tie-heavy), and far-future offsets. Because a
// callback's behavior depends only on its id, identical execution
// orders produce identical logs, and any ordering divergence between the
// two schedulers cascades into a log difference.
type schedProgram struct {
	log    []string
	issued int
	limit  int
	seed   uint64
	sched  func(at Time, fn func())
	nowFn  func() Time
}

func (pr *schedProgram) spawn(id int) func() {
	return func() {
		now := pr.nowFn()
		pr.log = append(pr.log, fmt.Sprintf("t=%d id=%d", now, id))
		rng := pr.seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
		kids := int(splitmix64(&rng) % 3)
		for k := 0; k < kids && pr.issued < pr.limit; k++ {
			var off Time
			switch splitmix64(&rng) % 6 {
			case 0:
				off = 0 // same instant: imm ring
			case 1, 2:
				off = Time(splitmix64(&rng)%5) * 700 // near, tie-prone (may be 0)
			case 3:
				off = Time(1 + splitmix64(&rng)%1_000_000)
			case 4:
				off = Time(1<<41) + Time(splitmix64(&rng)%3)*500
			default:
				off = Time(1<<61) + Time(splitmix64(&rng)%2)
			}
			id2 := pr.issued
			pr.issued++
			pr.sched(now+off, pr.spawn(id2))
		}
	}
}

func (pr *schedProgram) seedRoots(roots int) {
	rng := pr.seed
	for i := 0; i < roots; i++ {
		at := Time(splitmix64(&rng) % 3000)
		id := pr.issued
		pr.issued++
		pr.sched(at, pr.spawn(id))
	}
}

// TestEnvMatchesReferenceScheduler runs randomized self-scheduling
// programs through an Env and the sorted-slice reference scheduler and
// requires byte-identical execution logs — including same-instant imm
// interleavings, horizon-bounded runs that strand far-future events,
// and Close on the still-populated Env afterwards.
func TestEnvMatchesReferenceScheduler(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(trial)*0x9e3779b97f4a7c15 + 7
		// Odd trials stop at a mid-run horizon, leaving the far-future
		// events stranded; even trials run to completion.
		var horizon Time
		if trial%2 == 1 {
			horizon = Time(1 << 42)
		}

		env := NewEnv()
		pe := &schedProgram{limit: 300, seed: seed, sched: env.At, nowFn: env.Now}
		pe.seedRoots(8)
		env.Run(horizon)
		envNow := env.Now()
		envNext, envPending := env.NextEventAt()
		env.Close() // may still hold far-future events
		env.Close() // idempotent

		ref := &refSched{}
		pr := &schedProgram{limit: 300, seed: seed, sched: ref.schedule, nowFn: func() Time { return ref.now }}
		pr.seedRoots(8)
		ref.run(horizon)

		if len(pe.log) != len(pr.log) {
			t.Fatalf("trial %d: env executed %d callbacks, reference %d", trial, len(pe.log), len(pr.log))
		}
		for i := range pe.log {
			if pe.log[i] != pr.log[i] {
				t.Fatalf("trial %d: execution logs diverge at step %d: env %q, reference %q",
					trial, i, pe.log[i], pr.log[i])
			}
		}
		if envNow != ref.now {
			t.Fatalf("trial %d: env clock %d, reference %d", trial, envNow, ref.now)
		}
		refPending := len(ref.pending) > 0
		if envPending != refPending {
			t.Fatalf("trial %d: env pending=%v, reference pending=%v", trial, envPending, refPending)
		}
		if envPending && envNext != ref.pending.min().at {
			t.Fatalf("trial %d: env NextEventAt %d, reference min %d", trial, envNext, ref.pending.min().at)
		}
	}
}

// TestEnvNextEventAtEdgeCases covers the peek path the window scheduler
// depends on: empty environment, far-future events, repeated peeks, an
// earlier push displacing the minimum, the imm fast path, and a horizon
// run that leaves the far event pending.
func TestEnvNextEventAtEdgeCases(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	if at, ok := env.NextEventAt(); ok {
		t.Fatalf("empty env: NextEventAt = (%d, true), want none", at)
	}
	far := Time(1<<61) + 12345
	env.At(far, func() {})
	for i := 0; i < 3; i++ { // repeated peeks must not drift
		if at, ok := env.NextEventAt(); !ok || at != far {
			t.Fatalf("peek %d: NextEventAt = (%d, %v), want (%d, true)", i, at, ok, far)
		}
	}
	near := Time(1000)
	env.At(near, func() {}) // strictly earlier: becomes the minimum
	if at, ok := env.NextEventAt(); !ok || at != near {
		t.Fatalf("after near push: NextEventAt = (%d, %v), want (%d, true)", at, ok, near)
	}
	env.At(0, func() {}) // at == now: imm ring, reported at the current instant
	if at, ok := env.NextEventAt(); !ok || at != 0 {
		t.Fatalf("with imm pending: NextEventAt = (%d, %v), want (0, true)", at, ok)
	}
	if end := env.Run(Time(2000)); end != Time(2000) {
		t.Fatalf("Run(2000) returned %d", end)
	}
	if at, ok := env.NextEventAt(); !ok || at != far {
		t.Fatalf("after horizon run: NextEventAt = (%d, %v), want (%d, true)", at, ok, far)
	}
	if end := env.Run(0); end != far {
		t.Fatalf("run to completion ended at %d, want %d", end, far)
	}
	if at, ok := env.NextEventAt(); ok {
		t.Fatalf("drained env: NextEventAt = (%d, true), want none", at)
	}
}
