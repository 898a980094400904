package main

import (
	"sort"
	"sync/atomic"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	// Server side, recorded by the net.Listener wrapper's conns.
	spRead    spanKind = iota // one Read call: n = bytes
	spProcess                 // a read's return to the next write's start
	spWrite                   // one Write call: n = bytes
	// Server side, recorded by the registry.Journal wrapper.
	spAppend    // a sampled Added/Updated/Removed call
	spSealed    // every Sealed call (all shard locks held)
	spPublished // every Published call
	// Generator side.
	spEncode // encoding one flushed batch: n = requests
	spFlush  // one lbclient Flush: n = bytes
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"server.read", "server.process", "server.write",
	"wal.append", "wal.sealed", "wal.published",
	"lbclient.encode", "lbclient.flush",
}

// span is one timed call: start and duration in ns on the recording
// process's clock.
type span struct {
	start, dur int64
	n          int64
	kind       spanKind
}

func (s span) end() int64 { return s.start + s.dur }

// spanLog is a preallocated span buffer with a single writer. It fills
// once; spans past its capacity are counted, not stored, and show up as
// lost coverage.
type spanLog struct {
	spans   []span
	dropped int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
}

// sharedLog is a preallocated span buffer that many goroutines append
// to: a slot is claimed with one atomic add. Read it only after every
// writer has stopped.
type sharedLog struct {
	spans []span
	n     atomic.Int64
}

func newSharedLog(capacity int) *sharedLog { return &sharedLog{spans: make([]span, capacity)} }

func (l *sharedLog) add(s span) {
	if i := l.n.Add(1) - 1; i < int64(len(l.spans)) {
		l.spans[i] = s
	}
}

func (l *sharedLog) recorded() []span {
	return l.spans[:min(l.n.Load(), int64(len(l.spans)))]
}

func (l *sharedLog) dropped() int64 { return max(0, l.n.Load()-int64(len(l.spans))) }

// overlap returns the part of [start, end) inside the window [a, b).
func overlap(start, end, a, b int64) int64 {
	return max(0, min(end, b)-max(start, a))
}

// kindAgg sums one span kind over a window.
type kindAgg struct {
	Count int64 `json:"count"` // spans starting in the window
	Ns    int64 `json:"ns"`    // their time, clipped to the window
	N     int64 `json:"n"`     // their byte or request counts
	durs  []int64
}

// windowAgg is every span kind's sums over one window, plus the wall
// time the window's connections were open.
type windowAgg struct {
	Start  int64               `json:"start_ns"`
	End    int64               `json:"end_ns"`
	WallNs int64               `json:"wall_ns"`
	Kinds  [nSpanKinds]kindAgg `json:"kinds"` // indexed by spanKind; see spanNames
	// AppendMeanNs is the mean sampled append of at most appendCap.
	AppendMeanNs float64 `json:"append_mean_ns"`
}

// aggregate sums spans into the window [a, b). Spans are clipped to the
// window so that coverage stays exact when a span straddles an edge;
// counts and byte sums go to the window the span starts in. keepDurs
// keeps each kind's durations for quantiles.
func (w *windowAgg) aggregate(spans []span, keepDurs bool) {
	for _, s := range spans {
		ns := overlap(s.start, s.end(), w.Start, w.End)
		k := &w.Kinds[s.kind]
		k.Ns += ns
		if s.start >= w.Start && s.start < w.End {
			k.Count++
			k.N += s.n
			if keepDurs {
				k.durs = append(k.durs, s.dur)
			}
		}
	}
}

// addConn adds one connection's open interval to the window's wall time.
func (w *windowAgg) addConn(open, closed int64) {
	w.WallNs += overlap(open, closed, w.Start, w.End)
}

// coverage is the share of the connections' open time that the read,
// process and write spans account for.
func (w *windowAgg) coverage() float64 {
	if w.WallNs == 0 {
		return 0
	}
	k := &w.Kinds
	return float64(k[spRead].Ns+k[spProcess].Ns+k[spWrite].Ns) / float64(w.WallNs)
}

// appendCap separates sampled appends that only encoded their record
// from the rare long ones: a group commit (a 256 KiB write, 50 µs or
// more) or a call the host held up for milliseconds. One such sample
// stands for 64 calls, so a single one could move the estimate by more
// than all the journal's time; the commit time is taken exactly from the
// WAL's own histogram instead.
const appendCap = 10_000 // ns

// cappedMean returns the mean of the durations of at most limit.
func cappedMean(durs []int64, limit int64) float64 {
	var sum, n int64
	for _, d := range durs {
		if d <= limit {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// journalNs estimates the time spent inside the journal: AppendMeanNs
// times the append calls, plus commitNs, plus every Sealed and Published
// call. commitNs is the WAL's group-commit time outside Published
// (lb_wal_commit_seconds); in a window without seals that is all of it.
func (w *windowAgg) journalNs(appendCalls int64, commitNs float64) float64 {
	k := &w.Kinds
	return float64(k[spSealed].Ns+k[spPublished].Ns) + commitNs + w.AppendMeanNs*float64(appendCalls)
}

// serverSelfNs is the server layer's self time: its process spans minus
// the journal calls they contain (every journal call runs inside some
// connection's process span, from ApplyBatch or a seal).
func (w *windowAgg) serverSelfNs(appendCalls int64, commitNs float64) float64 {
	return float64(w.Kinds[spProcess].Ns) - w.journalNs(appendCalls, commitNs)
}

// durQuantile returns the q-quantile (nearest rank) of durs, sorting it.
func durQuantile(durs []int64, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return float64(durs[int(q*float64(len(durs)-1))])
}
