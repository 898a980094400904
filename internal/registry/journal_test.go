package registry

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/alloc"
)

// recJournal records every journal callback for inspection.
type recJournal struct {
	mu      sync.Mutex
	adds    map[int]float64
	updates map[int]float64
	removes []int
	rates   []float64
	seals   []SealEvent
	written [][]int // per seal, the ids SealEvent.Written visited, ascending
	pubs    []uint64
}

func newRecJournal() *recJournal {
	return &recJournal{adds: map[int]float64{}, updates: map[int]float64{}}
}

func (j *recJournal) Added(id int, t float64) {
	j.mu.Lock()
	j.adds[id] = t
	j.mu.Unlock()
}

func (j *recJournal) Updated(id int, t float64) {
	j.mu.Lock()
	j.updates[id] = t
	j.mu.Unlock()
}

func (j *recJournal) Removed(id int) {
	j.mu.Lock()
	j.removes = append(j.removes, id)
	j.mu.Unlock()
}

func (j *recJournal) RateChanged(rate float64) {
	j.mu.Lock()
	j.rates = append(j.rates, rate)
	j.mu.Unlock()
}

func (j *recJournal) Sealed(ev SealEvent) {
	j.mu.Lock()
	// Copy the live set out: ev.T is valid only during the call.
	cp := ev
	cp.T = append([]float64(nil), ev.T...)
	cp.Written = nil
	j.seals = append(j.seals, cp)
	ids := []int{}
	ev.Written(func(id int) { ids = append(ids, id) })
	slices.Sort(ids)
	j.written = append(j.written, ids)
	j.mu.Unlock()
}

func (j *recJournal) Published(snap *Snapshot) {
	j.mu.Lock()
	j.pubs = append(j.pubs, snap.Epoch())
	j.mu.Unlock()
}

// TestSealEventWritten: SealEvent.Written visits exactly the ids
// added, rebid or removed since the previous seal — through the serial
// methods and ApplyBatch, failed ops left out — and, after an
// AttachJournal, only those written since the attach.
func TestSealEventWritten(t *testing.T) {
	j := newRecJournal()
	r, err := New(Config{Rate: 10, Shards: 4, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Add(float64(1 + i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Seal()
	if err := r.Update(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(5); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(99, 5); err == nil {
		t.Fatal("rebid of an unknown id succeeded")
	}
	r.ApplyBatch([]BatchOp{
		{Kind: BatchRebid, ID: 7, T: 2},
		{Kind: BatchLeave, ID: 8},
		{Kind: BatchAdd, T: 3},
		{Kind: BatchRebid, ID: 50, T: 2},
		{Kind: BatchRebid, ID: 1, T: -1},
		{Kind: BatchLeave, ID: 5},
	}, nil, nil)
	r.Seal()
	r.Seal()
	want := [][]int{{}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {2, 5, 7, 8, 10}, {}}
	if !reflect.DeepEqual(j.written, want) {
		t.Fatalf("written ids per seal %v, want %v", j.written, want)
	}

	r.AttachJournal(nil)
	if err := r.Update(3, 7); err != nil {
		t.Fatal(err)
	}
	j2 := newRecJournal()
	r.AttachJournal(j2)
	if err := r.Update(4, 7); err != nil {
		t.Fatal(err)
	}
	r.Seal()
	if want := [][]int{{4}}; !reflect.DeepEqual(j2.written, want) {
		t.Fatalf("written ids after an attach %v, want %v", j2.written, want)
	}
}

func TestJournalObservesMutationsAndSeals(t *testing.T) {
	j := newRecJournal()
	r, err := New(Config{Rate: 10, Shards: 4, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.Add(2)
	b, _ := r.Add(4)
	if err := r.Update(a, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(b); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRate(20); err != nil {
		t.Fatal(err)
	}
	snap := r.Seal()

	if j.adds[a] != 2 || j.adds[b] != 4 {
		t.Fatalf("adds not journaled: %v", j.adds)
	}
	if j.updates[a] != 3 {
		t.Fatalf("update not journaled: %v", j.updates)
	}
	if len(j.removes) != 1 || j.removes[0] != b {
		t.Fatalf("remove not journaled: %v", j.removes)
	}
	if len(j.rates) != 1 || j.rates[0] != 20 {
		t.Fatalf("rate change not journaled: %v", j.rates)
	}
	// New seals epoch 1 internally, so the explicit seal is epoch 2.
	last := j.seals[len(j.seals)-1]
	if last.Epoch != snap.Epoch() || last.Rate != 20 || last.Live != 1 || last.Next != 2 {
		t.Fatalf("seal event %+v does not match snapshot (epoch %d)", last, snap.Epoch())
	}
	if last.T[a] != 3 || last.T[b] != 0 {
		t.Fatalf("seal event population %v, want id %d at 3 and id %d absent", last.T, a, b)
	}
	if j.pubs[len(j.pubs)-1] != snap.Epoch() {
		t.Fatalf("published epochs %v missing %d", j.pubs, snap.Epoch())
	}
}

func TestAttachJournalDetach(t *testing.T) {
	r, err := New(Config{Rate: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(1); err != nil { // unjournaled
		t.Fatal(err)
	}
	j := newRecJournal()
	r.AttachJournal(j)
	id, _ := r.Add(2)
	batched := r.ApplyBatch([]BatchOp{{Kind: BatchAdd, T: 5}}, nil, nil)[0].ID
	if j.adds[id] != 2 || j.adds[batched] != 5 || len(j.adds) != 2 {
		t.Fatalf("attached journal saw %v, want only ids %d and %d", j.adds, id, batched)
	}
	r.AttachJournal(nil)
	if _, err := r.Add(3); err != nil {
		t.Fatal(err)
	}
	r.ApplyBatch([]BatchOp{{Kind: BatchAdd, T: 6}}, nil, nil)
	if len(j.adds) != 2 {
		t.Fatalf("detached journal still receiving mutations: %v", j.adds)
	}
}

// recBatchJournal is a recJournal that also takes ApplyBatch's shard
// groups through Mutations.
type recBatchJournal struct {
	*recJournal
	groups [][]BatchOp
}

func (j *recBatchJournal) Mutations(ops []BatchOp) {
	j.mu.Lock()
	j.groups = append(j.groups, append([]BatchOp(nil), ops...))
	j.mu.Unlock()
}

// TestApplyBatchJournalsShardGroups pins the BatchJournal path: a
// journal with Mutations gets one call per touched shard, in
// first-touch order, holding that shard's applied ops in slice order —
// adds with their assigned ids, failed ops left out — and no per-op
// calls, whether it came in through Config or AttachJournal.
func TestApplyBatchJournalsShardGroups(t *testing.T) {
	for _, attach := range []bool{false, true} {
		j := &recBatchJournal{recJournal: newRecJournal()}
		cfg := Config{Rate: 10, Shards: 4}
		if !attach {
			cfg.Journal = j
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			r.AttachJournal(j)
		}
		// Ids 0..3 land on shards 0..3.
		r.ApplyBatch([]BatchOp{
			{Kind: BatchAdd, T: 1},
			{Kind: BatchAdd, T: 2},
			{Kind: BatchAdd, T: -1}, // bad value
			{Kind: BatchAdd, T: 3},
			{Kind: BatchRebid, ID: 0, T: 4},
			{Kind: BatchLeave, ID: 1},
			{Kind: BatchRebid, ID: 9, T: 1}, // unknown id
			{Kind: BatchAdd, T: 5},
			{Kind: BatchLeave, ID: 0},
		}, nil, nil)
		want := [][]BatchOp{
			{{Kind: BatchAdd, ID: 0, T: 1}, {Kind: BatchRebid, ID: 0, T: 4}, {Kind: BatchLeave, ID: 0}},
			{{Kind: BatchAdd, ID: 1, T: 2}, {Kind: BatchLeave, ID: 1}},
			{{Kind: BatchAdd, ID: 2, T: 3}},
			{{Kind: BatchAdd, ID: 3, T: 5}},
		}
		if !reflect.DeepEqual(j.groups, want) {
			t.Fatalf("attach=%v: Mutations groups %v, want %v", attach, j.groups, want)
		}
		if len(j.adds)+len(j.updates)+len(j.removes) != 0 {
			t.Fatalf("attach=%v: batch ops also reached the per-op methods: %v %v %v", attach, j.adds, j.updates, j.removes)
		}
	}
}

func TestRestoreAgent(t *testing.T) {
	r, err := New(Config{Rate: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreAgent(5, 2.5); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Value(5); !ok || v != 2.5 {
		t.Fatalf("restored agent: %v %v", v, ok)
	}
	if err := r.RestoreAgent(5, 1); err == nil {
		t.Fatalf("double restore of a live id succeeded")
	}
	var ve *alloc.ValueError
	if err := r.RestoreAgent(6, math.Inf(1)); !errors.As(err, &ve) {
		t.Fatalf("non-finite bid restored: %v", err)
	}
	if err := r.RestoreAgent(-1, 1); err == nil {
		t.Fatalf("negative id restored")
	}
	// The id counter is raised past every restored id.
	if id, _ := r.Add(1); id != 6 {
		t.Fatalf("Add assigned %d after restoring id 5, want 6", id)
	}
	r.RestoreNext(100)
	r.RestoreNext(50) // never lowers
	if id, _ := r.Add(1); id != 100 {
		t.Fatalf("Add assigned %d after RestoreNext(100)", id)
	}
}
