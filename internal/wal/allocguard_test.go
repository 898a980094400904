//go:build !race

package wal

// Memory guard for the snapshot path. It measures
// runtime.MemStats.TotalAlloc, whose byte counts grow under the race
// detector's instrumented allocator, so the file is excluded from
// -race runs.

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/registry"
)

// allocatedBy returns the heap bytes allocated while f runs.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotSealAllocBound pins a snapshot-cadence seal plus the
// write of its snapshot at the seal's own bid array, 8 bytes per issued
// id, plus a constant: the capture copies no population, and the file
// streams through a fixed buffer.
func TestSnapshotSealAllocBound(t *testing.T) {
	const n = 1 << 17
	w := createManual(t, t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1})
	defer w.Close()
	r, err := registry.New(registry.Config{Rate: 20, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.Add(0.5 + float64(i%31)); err != nil {
			t.Fatal(err)
		}
	}
	r.AttachJournal(w)
	r.Seal() // warm the log buffer and the first snapshot file
	settle(w)
	got := allocatedBy(func() {
		r.Seal()
		settle(w)
	})
	t.Logf("snapshot-cadence seal plus write: %d bytes, %.2f B/id", got, float64(got)/n)
	if limit := uint64(8*n + 512<<10); got > limit {
		t.Fatalf("snapshot-cadence seal over %d ids allocated %d bytes (%.1f B/id), want <= %d (8 B/id + 512 KiB)",
			n, got, float64(got)/n, limit)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if _, snaps, err := scanDir(w.dir); err != nil || len(snaps) != 2 {
		t.Fatalf("%d snapshot files (err %v), want 2", len(snaps), err)
	}
}

// TestFullSidecarSealAllocBound is TestSnapshotSealAllocBound for a
// seal whose sidecar is full because every id was rebid since the
// previous one, so the delta would be the larger: the full stream too
// copies no population.
func TestFullSidecarSealAllocBound(t *testing.T) {
	const n = 1 << 17
	w := createManual(t, t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1})
	defer w.Close()
	r, err := registry.New(registry.Config{Rate: 20, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.Add(0.5 + float64(i%31)); err != nil {
			t.Fatal(err)
		}
	}
	r.AttachJournal(w)
	r.Seal()
	settle(w)
	for id := 0; id < n; id++ {
		if err := r.Update(id, 1+float64(id%29)); err != nil {
			t.Fatal(err)
		}
	}
	got := allocatedBy(func() {
		r.Seal()
		settle(w)
	})
	t.Logf("full-sidecar seal plus write: %d bytes, %.2f B/id", got, float64(got)/n)
	if limit := uint64(8*n + 512<<10); got > limit {
		t.Fatalf("full-sidecar seal over %d ids allocated %d bytes (%.1f B/id), want <= %d (8 B/id + 512 KiB)",
			n, got, float64(got)/n, limit)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	sd, err := readSnapshot(filepath.Join(w.dir, snapName(3)))
	if err != nil || sd.delta != nil {
		t.Fatalf("the measured sidecar is not a full one (err %v)", err)
	}
}
