package sim

import (
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestScheduleFromWithinAction(t *testing.T) {
	e := New()
	var times []float64
	var tick func()
	count := 0
	tick = func() {
		times = append(times, e.Now())
		count++
		if count < 5 {
			e.Schedule(2, tick)
		}
	}
	e.Schedule(2, tick)
	e.Run()
	want := []float64{2, 4, 6, 8, 10}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []string
	a := e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(2, func() { got = append(got, "b") })
	_ = a
	a.Cancel()
	e.Run()
	if len(got) != 1 || got[0] != "b" {
		t.Errorf("got %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Errorf("fired %v, want 3 events", fired)
	}
	if e.Now() != 3 {
		t.Errorf("now = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Idle advance: no events between 3 and 3.5.
	e.RunUntil(3.5)
	if e.Now() != 3.5 {
		t.Errorf("now = %v, want 3.5", e.Now())
	}
	e.Run()
	if len(fired) != 5 {
		t.Errorf("fired %v, want all 5", fired)
	}
}

func TestAtAbsoluteTime(t *testing.T) {
	e := New()
	var at float64
	e.At(7, func() { at = e.Now() })
	e.Run()
	if at != 7 {
		t.Errorf("fired at %v, want 7", at)
	}
}

func TestScheduleZeroDelay(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(0, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Errorf("zero-delay event: fired=%v now=%v", fired, e.Now())
	}
}

func TestSchedulePanics(t *testing.T) {
	e := New()
	for _, fn := range []func(){
		func() { e.Schedule(-1, func() {}) },
		func() { e.At(-0.5, func() {}) },
		func() { e.RunUntil(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAtPastTimePanicsAfterAdvance(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	e.At(3, func() {})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

func TestScheduleCallCarriesArg(t *testing.T) {
	e := New()
	var got []float64
	add := func(v float64) { got = append(got, v) }
	e.ScheduleCall(2, add, 20)
	e.AtCall(1, add, 10)
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestPoolingReusesEvents(t *testing.T) {
	e := New()
	e.SetPooling(true)
	fn := func(float64) {}
	// One outstanding event at a time: after warm-up, scheduling must
	// reuse the single pooled Event instead of allocating.
	e.ScheduleCall(1, fn, 0)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleCall(1, fn, 0)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("pooled schedule+run allocated %v per op, want 0", allocs)
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	e := New()
	e.SetPooling(true)
	run := func() []float64 {
		var order []float64
		e.Schedule(3, func() { order = append(order, e.Now()) })
		e.Schedule(1, func() { order = append(order, e.Now()) })
		e.Schedule(1, func() { order = append(order, -e.Now()) }) // FIFO tie-break
		e.Run()
		return order
	}
	first := run()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("reset left now=%v pending=%d", e.Now(), e.Pending())
	}
	second := run()
	if len(first) != len(second) {
		t.Fatalf("replay lengths differ: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged: %v vs %v", first, second)
		}
	}
}

func TestResetDiscardsPending(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Reset()
	e.Run()
	if fired {
		t.Error("event survived Reset")
	}
}

func TestPoolingRecyclesCanceled(t *testing.T) {
	e := New()
	e.SetPooling(true)
	ev := e.Schedule(1, func() { t.Error("canceled event fired") })
	ev.Cancel()
	e.Run()
	// The canceled event must have been recycled: the next schedule
	// runs without allocating.
	if allocs := testing.AllocsPerRun(10, func() {
		e.ScheduleCall(1, func(float64) {}, 0)
		e.Run()
	}); allocs != 0 {
		t.Errorf("schedule after canceled recycle allocated %v", allocs)
	}
}
