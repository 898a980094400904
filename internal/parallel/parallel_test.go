package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	var hits [n]int32
	ForEach(n, 8, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

func TestForEachSingleWorkerSequential(t *testing.T) {
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker out of order: %v", order)
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Error("fn called for non-positive n")
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var count int64
	ForEach(100, 0, func(int) { atomic.AddInt64(&count, 1) })
	if count != 100 {
		t.Errorf("count = %d", count)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Errorf("panic value %v", r)
		}
	}()
	ForEach(50, 4, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestMapOrder(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	e7 := errors.New("seven")
	e3 := errors.New("three")
	_, err := MapErr(10, 4, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, e7
		case 3:
			return 0, e3
		}
		return i, nil
	})
	if err != e3 {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
	// All-success path.
	out, err := MapErr(4, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit worker count ignored")
	}
	if Workers(0) < 1 {
		t.Error("default workers < 1")
	}
}

func TestMapErrFastFailAbandonsUnclaimedWork(t *testing.T) {
	// Every index >= 2 waits until index 1 has started. Indices 0 and
	// 1 share the first chunk (n/(4*16) = 1562 indices), so the worker
	// that fails index 0 runs index 1 next, and MapErr stores the stop
	// flag in between. Once index 1 has started, no worker can claim a
	// new chunk: each finishes at most the chunk it holds, whatever
	// the scheduling.
	const n = 100000
	var calls atomic.Int64
	started1 := make(chan struct{})
	_, err := MapErr(n, 4, func(i int) (int, error) {
		calls.Add(1)
		switch {
		case i == 0:
			return 0, errors.New("boom")
		case i == 1:
			close(started1)
		default:
			<-started1
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got == n {
		t.Errorf("all %d calls ran despite an error at index 0; fast fail did not stop the fan-out", n)
	}
}

func TestMapErrFastFailSerial(t *testing.T) {
	var calls int
	_, err := MapErr(1000, 1, func(i int) (int, error) {
		calls++
		if i == 5 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 6 {
		t.Errorf("serial fast fail ran %d calls, want 6", calls)
	}
}

func TestForEachFastFailOnPanic(t *testing.T) {
	const n = 100000
	var calls atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected re-panic")
			}
		}()
		ForEach(n, 4, func(i int) {
			calls.Add(1)
			if i == 0 {
				panic("boom")
			}
		})
	}()
	if got := calls.Load(); got == n {
		t.Errorf("all %d calls ran despite a panic at index 0", n)
	}
}

func TestForEachBlockCoversAllIndicesOnce(t *testing.T) {
	for _, block := range []int{1, 3, 64, 1000, 5000} {
		const n = 1003
		var hits [n]int32
		ForEachBlock(n, block, 8, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("block=%d: bad range [%d, %d)", block, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("block=%d: index %d executed %d times", block, i, h)
			}
		}
	}
}

func TestForEachBlockDefaultBlockAndEmpty(t *testing.T) {
	var total atomic.Int64
	ForEachBlock(10, 0, 2, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 10 {
		t.Errorf("default block covered %d indices, want 10", total.Load())
	}
	called := false
	ForEachBlock(0, 8, 2, func(lo, hi int) { called = true })
	ForEachBlock(-4, 8, 2, func(lo, hi int) { called = true })
	if called {
		t.Error("fn called for non-positive n")
	}
}

func TestForEachBlockPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected re-panic")
		}
		if !strings.Contains(fmt.Sprint(r), "block boom") {
			t.Errorf("panic value %v does not carry the worker panic", r)
		}
	}()
	ForEachBlock(100, 10, 4, func(lo, hi int) { panic("block boom") })
}
