package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDurationConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if Microsecond.Microseconds() != 1.0 {
		t.Errorf("Microsecond.Microseconds() = %v, want 1", Microsecond.Microseconds())
	}
	if d := DurationFromSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("DurationFromSeconds(1.5) = %v, want %v", d, 1500*Millisecond)
	}
	if d := DurationFromSeconds(0); d != 0 {
		t.Errorf("DurationFromSeconds(0) = %v, want 0", d)
	}
}

func TestEventOrdering(t *testing.T) {
	env := NewEnv()
	var order []int
	env.After(3*Microsecond, func() { order = append(order, 3) })
	env.After(1*Microsecond, func() { order = append(order, 1) })
	env.After(2*Microsecond, func() { order = append(order, 2) })
	env.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.After(5*Nanosecond, func() { order = append(order, i) })
	}
	env.Run(0)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	env := NewEnv()
	fired := false
	env.After(10*Microsecond, func() { fired = true })
	end := env.Run(Time(5 * Microsecond))
	if fired {
		t.Error("event past the horizon fired")
	}
	if end != Time(5*Microsecond) {
		t.Errorf("Run returned %v, want 5us", end)
	}
}

func TestRunReentryPanics(t *testing.T) {
	env := NewEnv()
	env.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		env.Run(0)
	})
	env.Run(0)
}

func TestPastEventClampsToNow(t *testing.T) {
	env := NewEnv()
	var at Time
	env.After(10*Microsecond, func() {
		env.At(Time(3*Microsecond), func() { at = env.Now() })
	})
	env.Run(0)
	if at != Time(10*Microsecond) {
		t.Errorf("past event ran at %v, want clamped to 10us", at)
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv()
	var wake Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		wake = p.Now()
	})
	env.Run(0)
	if wake != Time(7*Microsecond) {
		t.Errorf("woke at %v, want 7us", wake)
	}
}

func TestProcSleepSequence(t *testing.T) {
	env := NewEnv()
	var marks []Time
	env.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1 * Microsecond)
			marks = append(marks, p.Now())
		}
	})
	env.Run(0)
	for i, m := range marks {
		want := Time((i + 1)) * Time(Microsecond)
		if m != want {
			t.Errorf("mark %d at %v, want %v", i, m, want)
		}
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	env := NewEnv()
	env.Go("p", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.SleepUntil(Time(1 * Microsecond)) // in the past
		if p.Now() != Time(5*Microsecond) {
			t.Errorf("SleepUntil past moved clock to %v", p.Now())
		}
	})
	env.Run(0)
}

func TestTwoProcsInterleave(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		order = append(order, "a1")
		p.Sleep(2 * Microsecond)
		order = append(order, "a3")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		order = append(order, "b2")
	})
	env.Run(0)
	want := []string{"a1", "b2", "a3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueBlockingGet(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got int
	var gotAt Time
	env.Go("consumer", func(p *Proc) {
		got = q.Get(p)
		gotAt = p.Now()
	})
	env.Go("producer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		q.Put(p, 42)
	})
	env.Run(0)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if gotAt != Time(5*Microsecond) {
		t.Errorf("consumer woke at %v, want 5us", gotAt)
	}
}

func TestQueueBoundedPutBlocks(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 2)
	var putDone Time
	env.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until the consumer drains one
		putDone = p.Now()
	})
	env.Go("consumer", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		q.Get(p)
	})
	env.Run(0)
	if putDone != Time(10*Microsecond) {
		t.Errorf("third Put completed at %v, want 10us", putDone)
	}
	if q.Len() != 2 {
		t.Errorf("queue len = %d, want 2", q.Len())
	}
}

func TestQueueFIFOAcrossManyItems(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(p, i)
			if i%7 == 0 {
				p.Sleep(1 * Nanosecond)
			}
		}
	})
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, q.Get(p))
		}
	})
	env.Run(0)
	if len(got) != 100 {
		t.Fatalf("received %d items, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestQueueTryGetTryPut(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env, 1)
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	if !q.TryPut("x") {
		t.Error("TryPut on empty bounded queue failed")
	}
	if q.TryPut("y") {
		t.Error("TryPut on full queue succeeded")
	}
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Errorf("TryGet = %q,%v want x,true", v, ok)
	}
}

func TestQueueDrainAppend(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	for i := 0; i < 5; i++ {
		q.TryPut(i)
	}
	buf := []int{-1}
	out := q.DrainAppend(buf, 3)
	if len(out) != 4 || out[0] != -1 || out[1] != 0 || out[3] != 2 {
		t.Errorf("DrainAppend([-1], 3) = %v, want [-1 0 1 2]", out)
	}
	if q.Len() != 2 {
		t.Errorf("len after drain = %d, want 2", q.Len())
	}
	out = q.DrainAppend(out[:0], 10)
	if len(out) != 2 || out[0] != 3 || out[1] != 4 {
		t.Errorf("DrainAppend(_, 10) = %v, want remaining [3 4]", out)
	}
	if out2 := q.DrainAppend(out[:0], 4); len(out2) != 0 {
		t.Errorf("DrainAppend on empty = %v, want empty", out2)
	}
}

func TestQueueDrainWakesPutters(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 1)
	var done Time
	env.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2) // blocks
		done = p.Now()
	})
	env.Go("drainer", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		q.DrainAppend(nil, 1)
	})
	env.Run(0)
	if done != Time(3*Microsecond) {
		t.Errorf("blocked putter resumed at %v, want 3us", done)
	}
}

func TestServerSerializes(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "link")
	var aDone, bDone Time
	env.Go("a", func(p *Proc) {
		srv.Use(p, 10*Microsecond)
		aDone = p.Now()
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		srv.Use(p, 10*Microsecond)
		bDone = p.Now()
	})
	env.Run(0)
	if aDone != Time(10*Microsecond) {
		t.Errorf("a done at %v, want 10us", aDone)
	}
	if bDone != Time(20*Microsecond) {
		t.Errorf("b done at %v, want 20us (queued behind a)", bDone)
	}
}

func TestServerIdleGap(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "link")
	var done Time
	env.Go("a", func(p *Proc) {
		srv.Use(p, 5*Microsecond)
		p.Sleep(100 * Microsecond) // server idles
		srv.Use(p, 5*Microsecond)
		done = p.Now()
	})
	env.Run(0)
	if done != Time(110*Microsecond) {
		t.Errorf("done at %v, want 110us (idle gap must not accumulate)", done)
	}
	if srv.BusyTime() != 10*Microsecond {
		t.Errorf("busy = %v, want 10us", srv.BusyTime())
	}
}

func TestServerSchedule(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "dma")
	t1 := srv.Schedule(4 * Microsecond)
	t2 := srv.Schedule(4 * Microsecond)
	if t1 != Time(4*Microsecond) || t2 != Time(8*Microsecond) {
		t.Errorf("Schedule = %v,%v want 4us,8us", t1, t2)
	}
	if srv.Backlog() != 8*Microsecond {
		t.Errorf("backlog = %v, want 8us", srv.Backlog())
	}
}

func TestServerUtilization(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "link")
	env.Go("a", func(p *Proc) {
		srv.Use(p, 25*Microsecond)
		p.Sleep(75 * Microsecond)
	})
	env.Run(0)
	if u := srv.Utilization(0); u < 0.24 || u > 0.26 {
		t.Errorf("utilization = %v, want 0.25", u)
	}
	if u := srv.Utilization(env.Now()); u != 0 {
		t.Errorf("utilization over zero window = %v, want 0", u)
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	woke := 0
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *Proc) {
			sig.Wait(p)
			woke++
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		if sig.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", sig.Waiters())
		}
		sig.Fire()
	})
	env.Run(0)
	if woke != 3 {
		t.Errorf("woke = %d, want 3", woke)
	}
	if sig.Waiters() != 0 {
		t.Errorf("waiters after fire = %d", sig.Waiters())
	}
}

func TestSignalFireWithNoWaitersIsNotLatched(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	sig.Fire() // nobody waiting; must not latch
	woke := false
	env.Go("w", func(p *Proc) {
		// Use a separate timeout proc to release the waiter so Run ends.
		sig.Wait(p)
		woke = true
	})
	env.Go("t", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		sig.Fire()
	})
	env.Run(0)
	if !woke {
		t.Error("waiter never woke from second fire")
	}
}

// Property: for any set of event delays, events execute in nondecreasing
// time order and the clock never goes backwards.
func TestEventClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		env := NewEnv()
		var times []Time
		for _, d := range delays {
			env.After(Duration(d)*Nanosecond, func() { times = append(times, env.Now()) })
		}
		env.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a bounded queue never exceeds its capacity and delivers items
// in insertion order, no matter the interleaving of sleeps.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(seed int64, capacity uint8) bool {
		cap := int(capacity%8) + 1
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		q := NewQueue[int](env, cap)
		const n = 200
		var got []int
		overflow := false
		env.Go("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
				if q.Len() > cap {
					overflow = true
				}
				if rng.Intn(3) == 0 {
					p.Sleep(Duration(rng.Intn(100)) * Nanosecond)
				}
			}
		})
		env.Go("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				got = append(got, q.Get(p))
				if rng.Intn(3) == 0 {
					p.Sleep(Duration(rng.Intn(100)) * Nanosecond)
				}
			}
		})
		env.Run(0)
		if overflow || len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a FIFO server's completions are spaced at least the service
// time apart.
func TestServerSpacingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		srv := NewServer(env, "s")
		var completions []Time
		for i := 0; i < 20; i++ {
			start := Duration(rng.Intn(1000)) * Nanosecond
			env.Go("u", func(p *Proc) {
				p.Sleep(start)
				srv.Use(p, 100*Nanosecond)
				completions = append(completions, p.Now())
			})
		}
		env.Run(0)
		for i := 1; i < len(completions); i++ {
			if completions[i]-completions[i-1] < Time(100*Nanosecond) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestManyProcsDeterminism(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		q := NewQueue[int](env, 4)
		var got []int
		for i := 0; i < 8; i++ {
			i := i
			env.Go("producer", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(i+1) * Microsecond)
					q.Put(p, i*100+j)
				}
			})
		}
		env.Go("consumer", func(p *Proc) {
			for k := 0; k < 80; k++ {
				got = append(got, q.Get(p))
			}
		})
		env.Run(0)
		return got
	}
	a, b := run(), run()
	if len(a) != 80 || len(b) != 80 {
		t.Fatalf("lens = %d,%d want 80", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestServerScheduleAt(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "s")
	// notBefore in the future: service starts there.
	done := srv.ScheduleAt(Time(100*Microsecond), 10*Microsecond)
	if done != Time(110*Microsecond) {
		t.Errorf("done = %v, want 110us", done)
	}
	// Next reservation queues behind the first even though notBefore is
	// earlier.
	done2 := srv.ScheduleAt(Time(50*Microsecond), 5*Microsecond)
	if done2 != Time(115*Microsecond) {
		t.Errorf("done2 = %v, want 115us", done2)
	}
	// notBefore in the past behaves like Schedule.
	env.After(200*Microsecond, func() {
		if d := srv.ScheduleAt(Time(1*Microsecond), 5*Microsecond); d != Time(205*Microsecond) {
			t.Errorf("past notBefore: done = %v, want 205us", d)
		}
	})
	env.Run(0)
}

func TestServerScheduleAtCountsBusyOnly(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "s")
	srv.ScheduleAt(Time(1*Millisecond), 10*Microsecond)
	// Busy time excludes the idle gap before notBefore.
	if srv.BusyTime() != 10*Microsecond {
		t.Errorf("busy = %v, want 10us", srv.BusyTime())
	}
	if srv.Backlog() != Duration(Time(1*Millisecond)+Time(10*Microsecond)) {
		t.Errorf("backlog = %v", srv.Backlog())
	}
}

func TestMultiplePuttersWakeInFIFOOrder(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 1)
	var order []int
	q.TryPut(0) // fill the queue
	for i := 1; i <= 3; i++ {
		i := i
		env.Go("putter", func(p *Proc) {
			q.Put(p, i)
			order = append(order, i)
		})
	}
	env.Go("drainer", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		for j := 0; j < 4; j++ {
			q.Get(p)
			p.Sleep(1 * Microsecond)
		}
	})
	env.Run(0)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("putters woke out of order: %v", order)
		}
	}
	if len(order) != 3 {
		t.Fatalf("only %d putters completed", len(order))
	}
}

func TestDurationFromSecondsRounding(t *testing.T) {
	ps := func(n float64) float64 { return n * 1e-12 }
	cases := []struct {
		s    float64
		want Duration
	}{
		// Round-to-nearest on both signs.
		{ps(1.4), 1}, {ps(1.6), 2},
		{ps(-1.4), -1}, {ps(-1.6), -2},
		// Ties round away from zero (the old +0.5 truncation gave
		// -1.5ps -> -1ps and -0.7ps -> 0).
		{ps(1.5), 2}, {ps(-1.5), -2},
		{ps(0.7), 1}, {ps(-0.7), -1},
		{ps(0.4), 0}, {ps(-0.4), 0},
		// Symmetry at larger magnitudes.
		{1.5, 1500 * Millisecond}, {-1.5, -1500 * Millisecond},
		{-1.0, -Second},
	}
	for _, c := range cases {
		if got := DurationFromSeconds(c.s); got != c.want {
			t.Errorf("DurationFromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
	// Negation symmetry property: f(-s) == -f(s).
	for _, s := range []float64{ps(0.1), ps(1.5), ps(2.5), 1e-9, 3.25e-6, 1.75} {
		if DurationFromSeconds(-s) != -DurationFromSeconds(s) {
			t.Errorf("rounding not symmetric at %v: %d vs %d",
				s, DurationFromSeconds(-s), DurationFromSeconds(s))
		}
	}
}

// recordingHooks collects ServerBusy callbacks for inspection.
type recordingHooks struct {
	spans []struct {
		id         int
		start, end Time
	}
}

func (h *recordingHooks) ServerBusy(s *Server, start, end Time) {
	h.spans = append(h.spans, struct {
		id         int
		start, end Time
	}{s.ID(), start, end})
}

func TestServerBusyHooksTileBusyTime(t *testing.T) {
	env := NewEnv()
	h := &recordingHooks{}
	env.SetHooks(h)
	srv := NewServer(env, "link")
	if srv.ID() != 1 || srv.Name() != "link" {
		t.Errorf("identity = %d/%q, want 1/link", srv.ID(), srv.Name())
	}
	env.Go("a", func(p *Proc) {
		srv.Use(p, 10*Microsecond)
		p.Sleep(5 * Microsecond)
		srv.Schedule(3 * Microsecond)
		srv.ScheduleAt(Time(100*Microsecond), 2*Microsecond)
		srv.Schedule(0) // zero reservations emit no span
	})
	env.Run(0)
	if len(h.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(h.spans))
	}
	var total Duration
	for i, sp := range h.spans {
		if sp.end <= sp.start {
			t.Errorf("span %d empty: [%v,%v)", i, sp.start, sp.end)
		}
		total += Duration(sp.end - sp.start)
	}
	if total != srv.BusyTime() {
		t.Errorf("span total %v != busy time %v", total, srv.BusyTime())
	}
	// Spans of one FIFO server never overlap.
	for i := 1; i < len(h.spans); i++ {
		if h.spans[i].start < h.spans[i-1].end {
			t.Errorf("spans overlap: %v then %v", h.spans[i-1], h.spans[i])
		}
	}
	// The ScheduleAt gap (idle until 100us) must not be inside any span.
	if h.spans[2].start != Time(100*Microsecond) {
		t.Errorf("deferred span starts at %v, want 100us", h.spans[2].start)
	}
}

func TestServerIDsUniquePerEnv(t *testing.T) {
	env := NewEnv()
	a := NewServer(env, "x")
	b := NewServer(env, "x")
	if a.ID() == b.ID() {
		t.Errorf("duplicate server IDs: %d", a.ID())
	}
	env2 := NewEnv()
	c := NewServer(env2, "y")
	if c.ID() != 1 {
		t.Errorf("fresh env first server ID = %d, want 1", c.ID())
	}
}
