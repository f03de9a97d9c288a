package timing

import (
	"math"
	"testing"
	"testing/quick"
)

// fn is a test-local action that runs a function. A func value is
// pointer-shaped, so queuing one allocates nothing.
type fn func()

func (f fn) Run() { f() }

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Push(3.0, fn(func() { got = append(got, 3) }))
	q.Push(1.0, fn(func() { got = append(got, 1) }))
	q.Push(2.0, fn(func() { got = append(got, 2) }))
	q.RunUntil(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		q.Push(7.0, fn(func() { got = append(got, i) }))
	}
	q.RunUntil(7.0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestQueueHorizon(t *testing.T) {
	var q Queue
	ran := false
	q.Push(5.0, fn(func() { ran = true }))
	q.RunUntil(4.999)
	if ran {
		t.Error("event ran before its time")
	}
	if q.Len() != 1 {
		t.Errorf("len = %d, want 1", q.Len())
	}
	q.RunUntil(5.0)
	if !ran {
		t.Error("event did not run at its time")
	}
}

func TestQueueCascade(t *testing.T) {
	var q Queue
	var got []float64
	q.Push(1.0, fn(func() {
		got = append(got, q.Now())
		q.Push(q.Now()+1.5, fn(func() { got = append(got, q.Now()) }))
	}))
	q.RunUntil(3.0)
	if len(got) != 2 || got[0] != 1.0 || got[1] != 2.5 {
		t.Errorf("cascade = %v, want [1 2.5]", got)
	}
}

func TestQueueCascadeBeyondHorizon(t *testing.T) {
	var q Queue
	ran := false
	q.Push(1.0, fn(func() { q.Push(q.Now()+5.0, fn(func() { ran = true })) }))
	q.RunUntil(3.0)
	if ran {
		t.Error("cascaded event beyond horizon must not run")
	}
	q.RunUntil(6.0)
	if !ran {
		t.Error("cascaded event should run once horizon advances")
	}
}

func TestQueuePastSchedulingClamps(t *testing.T) {
	var q Queue
	q.RunUntil(10)
	ran := false
	q.Push(2.0, fn(func() { ran = true })) // in the past: clamps to now
	q.RunUntil(10)
	if !ran {
		t.Error("past event should run at current horizon")
	}
	if q.Now() != 10 {
		t.Errorf("now = %v, want 10", q.Now())
	}
}

func TestQueueNextTime(t *testing.T) {
	var q Queue
	if _, ok := q.NextTime(); ok {
		t.Error("empty queue should report no next time")
	}
	q.Push(4.0, Nop{})
	if nt, ok := q.NextTime(); !ok || nt != 4.0 {
		t.Errorf("NextTime = %v, %v", nt, ok)
	}
}

// BenchmarkQueue models the simulator's steady-state load: a standing
// population of pending events with interleaved scheduling and draining.
// A pointer-shaped action is stored in the Event without a box, so the
// steady state allocates nothing.
func BenchmarkQueue(b *testing.B) {
	var q Queue
	act := fn(func() {})
	// Standing population of events so the heap has realistic depth.
	for i := 0; i < 256; i++ {
		q.Push(float64(i)*0.5, act)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := q.Now()
		for j := 0; j < 8; j++ {
			q.Push(t+float64(j%4)+0.25, act)
		}
		q.RunUntil(t + 1)
	}
}

func TestQueueMonotonicNow(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		last := -1.0
		mono := true
		for _, tm := range times {
			tm = math.Mod(math.Abs(tm), 1000) // keep magnitudes sane
			if math.IsNaN(tm) {
				tm = 0
			}
			q.Push(tm, fn(func() {
				if q.Now() < last {
					mono = false
				}
				last = q.Now()
			}))
		}
		q.RunUntil(1e9)
		return mono && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
