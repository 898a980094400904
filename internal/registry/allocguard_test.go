//go:build !race

package registry

// Memory guard for the seal. It measures runtime.MemStats.TotalAlloc,
// whose byte counts grow under the race detector's instrumented
// allocator, so the file is excluded from -race runs.

import (
	"runtime"
	"testing"
)

// TestSealAllocBound pins a seal's memory at one id-indexed bid array,
// 8 bytes per issued id (departed ids included), plus a constant.
func TestSealAllocBound(t *testing.T) {
	const n = 1 << 17
	r, err := New(Config{Rate: 20, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := mustAdd(t, r, 0.5+float64(i%31))
		if i%4 == 3 {
			if err := r.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.Seal()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Seal()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("seal: %d bytes, %.2f B/id", got, float64(got)/n)
	if limit := uint64(8*n + 64<<10); got > limit {
		t.Fatalf("Seal over %d issued ids allocated %d bytes (%.1f B/id), want <= %d (8 B/id + 64 KiB)",
			n, got, float64(got)/n, limit)
	}
}
