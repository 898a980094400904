package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/registry"
	"repro/internal/wal"
	"repro/internal/wire"
)

// crashTail is how many rebids follow the final seal before the kill:
// the log tail the restart replays, 50 MiB of records. Reading the
// part of the log segment before the snapshot's position costs up to
// 30ms more, depending on how full the segment happened to be; the
// tail keeps that a small share of recover_s.
const crashTail = 1 << 21

// cpuSlice and ackWindow are the nominal lengths of a batch-phase CPU
// slice and a fixed-rate latency window. utime and stime tick at 10ms,
// so a 500ms slice reads the server's CPU time to within 2%.
const (
	cpuSlice  = 500 * time.Millisecond
	ackWindow = time.Second
)

// conns is how many connections the generator drives: one, so that
// generator and server take turns on one CPU (pin.go).
const conns = 1

// An untraced run repeats its set-up until the set-ups have taken
// setupBudget in total and there have been at least minSetups. A
// set-up of 8k agents takes about 10 ms, mostly process start-up and
// fsyncs, and single ones vary by half, so those workloads get a
// hundred or so; one of 1M agents takes half a second.
//
// Set-up time follows the host's speed (hostref.go) only about half as
// strongly as the batch round trip does: over 74 runs of the three
// workloads, the log of the set-up time moved 0.48-0.54 times as much
// as the log of the host speed. So each set-up is scaled by the square
// root of the host speed timed just before it, and setup_s is the
// median of the scaled set-ups.
const (
	setupBudget = time.Second
	minSetups   = 5
)

// options configure a run.
type options struct {
	seconds float64 // measured time per run
	seed    uint64
	lbserve string // the lbserve binary
	self    string // this binary, re-executed as the traced server
	work    string // scratch directory for WALs and trace files
	scale   int    // divides each workload's population (tests)
	inproc  bool   // run the traced server in this process (tests)
}

// check is one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Checks    []check                `json:"checks"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]float64     `json:"detail"`
	Trace     *traceData             `json:"trace,omitempty"`
}

// traceData is what a traced run recorded: the traced server's marks,
// windows, obs snapshots and span sample, and the generator's own
// span sums over the fixed-rate and batch phases.
type traceData struct {
	Server    *serverTrace `json:"server"`
	Generator []windowAgg  `json:"generator"`
}

func (r *runResult) addChecks(cs ...check) {
	r.Checks = append(r.Checks, cs...)
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// session is one server instance with its connections and populations.
type session struct {
	o     *options
	w     workload
	tgt   *target
	dir   string // the server's WAL directory
	ds    []*connDriver
	seals []sealAck // every acknowledged seal, in order
	setup time.Duration
	// Requests sent outside the drivers' rings (seals and sampled reads
	// made synchronously), and how many of them failed.
	syncSent, syncFailed uint64
}

func (o *options) startTarget(dir, policy string, traced bool) (*target, error) {
	switch {
	case traced && o.inproc:
		p, err := wal.ParseSyncPolicy(policy)
		if err != nil {
			return nil, err
		}
		ts, err := startTraced(dir, p)
		if err != nil {
			return nil, err
		}
		return &target{addr: ts.addr, pid: os.Getpid(), inproc: ts}, nil
	case traced:
		out := dir + ".trace.json"
		t, err := startProcess(o.self, "-serve-traced", "-wal-dir", dir, "-wal-sync", policy, "-trace-out", out)
		if err != nil {
			return nil, err
		}
		t.traceOut = out
		return t, nil
	}
	return startProcess(o.lbserve, "-listen", "127.0.0.1:0", "-wal-dir", dir,
		"-wal-sync", policy, "-snapshot-every", fmt.Sprint(snapshotEvery))
}

// openSession is the timed set-up: start the server on a fresh WAL,
// connect, admit every connection's population and seal the first
// epoch.
func (o *options) openSession(w workload, traced bool, name string) (*session, error) {
	s := &session{o: o, w: w, dir: filepath.Join(o.work, name)}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	start := time.Now()
	var err error
	if s.tgt, err = o.startTarget(s.dir, w.sync, traced); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	agents := max(1, w.agents/o.scale/conns)
	for i := 0; i < conns; i++ {
		d, err := newConnDriver(i, s.tgt.addr, agents, o.seed)
		if err != nil {
			return nil, err
		}
		s.ds = append(s.ds, d)
	}
	p := &plan{base: start}
	if err := runConns(s.ds, p, func(d *connDriver) error { return d.populate(p) }); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	if _, err := s.seal(); err != nil {
		return nil, err
	}
	s.setup = time.Since(start)
	ok = true
	return s, nil
}

// seal seals an epoch synchronously on connection 0.
func (s *session) seal() (sealAck, error) {
	s.syncSent++
	info, err := s.ds[0].c.Seal()
	if err != nil {
		s.syncFailed++
		return sealAck{}, fmt.Errorf("seal: %w", err)
	}
	a := sealAck{epoch: info.Epoch, n: uint64(info.N), rate: info.Rate, sum: info.Sum}
	s.seals = append(s.seals, a)
	return a, nil
}

// close drops the connections, kills the server and removes its WAL.
func (s *session) close() {
	for _, d := range s.ds {
		d.c.Close()
		d.ref.close()
	}
	if s.tgt != nil {
		s.tgt.kill()
	}
	os.RemoveAll(s.dir)
	os.Remove(s.dir + ".trace.json")
}

// procMarks are the server's /proc counters at the start of the
// fixed-rate phase and at every batch-phase slice boundary.
type procMarks struct {
	fixed0 procSample
	batch  []procSample // batch[0] at the phase start, batch[i+1] at slice i's end
}

func (pm *procMarks) batchDelta() procSample {
	a, b := pm.batch[0], pm.batch[len(pm.batch)-1]
	return procSample{cpuS: b.cpuS - a.cpuS, ctxsw: b.ctxsw - a.ctxsw, writeBytes: b.writeBytes - a.writeBytes}
}

// measure runs the plan on every connection. A monitor goroutine marks
// each phase boundary on a traced server and samples the server's
// /proc counters there and at every batch-phase slice boundary.
func (s *session) measure(p *plan) (procMarks, error) {
	pm := procMarks{batch: make([]procSample, p.slices+1)}
	var perr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sample := func(t int64, dst *procSample) {
			if d := t - p.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if pid := s.tgt.pid; pid > 0 && perr == nil {
				*dst, perr = readProc(pid)
			}
		}
		sample(p.fixedStart, &pm.fixed0)
		s.tgt.mark()
		sample(p.fixedEnd, &pm.batch[0])
		s.tgt.mark()
		for i := 0; i < p.slices; i++ {
			sample(p.sliceEnd(i), &pm.batch[i+1])
		}
		s.tgt.mark()
	}()
	for _, d := range s.ds {
		d.sliceOK = make([]uint64, p.slices)
		d.sliceRTT = make([][]float64, p.slices)
		d.sliceRef = make([]hostRef, p.slices)
		d.ackLat = make([]hist, p.windows)
		d.c.SetDeadline(time.Now().Add(time.Duration(p.batchEnd) + time.Minute))
	}
	err := runConns(s.ds, p, func(d *connDriver) error {
		return d.drive(p, rand.New(rand.NewPCG(s.o.seed, uint64(2*d.index+1))))
	})
	<-done
	s.seals = append(s.seals, s.ds[0].seals...)
	if err == nil {
		err = perr
	}
	return pm, err
}

// newPlan lays out warm-up, fixed-rate and batch phases in sixteenths
// of the run's measured seconds: at the default 32s, an untraced run
// warms up for 2s, holds the fixed rate for 16s (160 seals at 100ms)
// and runs batches for 14s.
func (s *session) newPlan(warm, fixed, batch float64) *plan {
	ns := func(parts float64) int64 { return int64(parts / 16 * s.o.seconds * 1e9) }
	p := &plan{
		base:      time.Now(),
		rate:      s.w.rate / float64(len(s.ds)),
		load:      s.w.load,
		payment:   s.w.payment,
		sealEvery: int64(s.w.sealEvery),
	}
	p.fixedStart = p.warmStart + ns(warm)
	p.fixedEnd = p.fixedStart + ns(fixed)
	p.batchEnd = p.fixedEnd + ns(batch)
	p.slices = max(1, int(math.Round(float64(p.batchEnd-p.fixedEnd)/float64(cpuSlice))))
	p.windows = max(1, int(math.Round(float64(p.fixedEnd-p.fixedStart)/float64(ackWindow))))
	return p
}

// finish seals the final epoch once the drivers have drained, and
// checks it and sampled reads against the oracle. It seals on to the
// next epoch the WAL snapshots at, so that the log a restart replays
// is only what follows the final seal.
func (s *session) finish() (sealAck, []check) {
	final, err := s.seal()
	for err == nil && final.epoch%snapshotEvery != 0 {
		final, err = s.seal()
	}
	if err != nil {
		return final, []check{{Name: "final_seal", Detail: err.Error()}}
	}
	cs := []check{s.checkEpochs()}
	snap, c := s.checkOracle(final)
	cs = append(cs, c)
	if snap != nil {
		cs = append(cs, s.checkReads(final, snap))
	}
	return final, cs
}

// checkStatus counts every driver response by op and status; a status
// other than OK or a request never answered fails it. (The reader has
// already failed the run on any out-of-order or mismatched response.)
func (s *session) checkStatus() check {
	var failed uint64
	var counts []string
	for _, d := range s.ds {
		failed += d.failed()
		for k := opKind(0); k < nKinds; k++ {
			for st, n := range d.status[k] {
				if n > 0 {
					counts = append(counts, fmt.Sprintf("conn%d %s %s=%d", d.index, opName(k), wire.StatusString(byte(st)), n))
				}
			}
		}
	}
	return check{Name: "fifo_and_status", OK: failed == 0,
		Detail: fmt.Sprintf("%d not answered OK; %s", failed, strings.Join(counts, ", "))}
}

func opName(k opKind) string {
	return [nKinds]string{"rebid", "load", "payment", "seal", "add", "ping"}[k]
}

// checkEpochs: the fresh registry sealed epoch 1, so the seals this
// benchmark sent must be epochs 2, 3, ... with no gap, all at the
// server's rate.
func (s *session) checkEpochs() check {
	for i, a := range s.seals {
		if a.epoch != uint64(i+2) || a.rate != serverRate {
			return check{Name: "seal_epochs", Detail: fmt.Sprintf("seal %d acknowledged epoch %d rate %g, want epoch %d rate %d", i, a.epoch, a.rate, i+2, serverRate)}
		}
	}
	return check{Name: "seal_epochs", OK: true, Detail: fmt.Sprintf("%d seals, epochs 2..%d", len(s.seals), len(s.seals)+1)}
}

// checkOracle rebuilds the final epoch locally from each agent's last
// acknowledged bid and compares epoch, n and the S bits.
func (s *session) checkOracle(final sealAck) (*registry.Snapshot, check) {
	reg, err := registry.New(registry.Config{Rate: serverRate})
	if err != nil {
		return nil, check{Name: "oracle_seal", Detail: err.Error()}
	}
	for _, d := range s.ds {
		for i, id := range d.ids {
			if err := reg.RestoreAgent(id, d.bids[i]); err != nil {
				return nil, check{Name: "oracle_seal", Detail: err.Error()}
			}
		}
	}
	reg.RestoreEpoch(final.epoch - 1)
	snap := reg.Seal()
	want := sealAck{epoch: snap.Epoch(), n: uint64(snap.N()), rate: snap.Rate(), sum: snap.Sum()}
	if final.line() != want.line() {
		return nil, check{Name: "oracle_seal", Detail: fmt.Sprintf("server %s, oracle %s", final.line(), want.line())}
	}
	return snap, check{Name: "oracle_seal", OK: true, Detail: final.line()}
}

// sampledReads is how many load and payment answers checkReads compares.
const sampledReads = 1000

// checkReads asks for sampled loads and payments of the final epoch and
// compares them bitwise with the oracle's snapshot.
func (s *session) checkReads(final sealAck, snap *registry.Snapshot) check {
	rng := rand.New(rand.NewPCG(s.o.seed, 0x5eed))
	c := s.ds[0].c
	ids := make([]int, sampledReads)
	for i := range ids {
		d := s.ds[rng.IntN(len(s.ds))]
		ids[i] = d.ids[rng.IntN(len(d.ids))]
		if i%2 == 0 {
			c.QueueLoad(ids[i])
		} else {
			c.QueuePayment(ids[i])
		}
	}
	s.syncSent += sampledReads
	fail := func(format string, a ...any) check {
		s.syncFailed++
		return check{Name: "sampled_reads", Detail: fmt.Sprintf(format, a...)}
	}
	if err := c.Flush(); err != nil {
		return fail("%v", err)
	}
	for i, id := range ids {
		p, err := c.Recv()
		if err != nil {
			return fail("%v", err)
		}
		if p.Status != wire.StatusOK {
			return fail("read of id %d: %s", id, wire.StatusString(p.Status))
		}
		if i%2 == 0 {
			x, _ := snap.Load(id)
			if p.Op != wire.OpLoad || p.Epoch != final.epoch || math.Float64bits(p.Value) != math.Float64bits(x) {
				return fail("load of id %d: epoch %d x=%v, oracle epoch %d x=%v", id, p.Epoch, p.Value, final.epoch, x)
			}
		} else {
			comp, bonus, _ := snap.Payment(id)
			if p.Op != wire.OpPayment || math.Float64bits(p.Value) != math.Float64bits(comp) || math.Float64bits(p.Value2) != math.Float64bits(bonus) {
				return fail("payment of id %d: (%v, %v), oracle (%v, %v)", id, p.Value, p.Value2, comp, bonus)
			}
		}
	}
	return check{Name: "sampled_reads", OK: true, Detail: fmt.Sprintf("%d loads and payments match the oracle bitwise", sampledReads)}
}

// crashAndRecover kills the server with SIGKILL, restarts lbserve on
// the same WAL, times exec → listening in seconds, and checks the
// recovered epoch line. Under -wal-sync seal the final seal was fsynced
// before its ack, so recovery must reproduce it.
func (s *session) crashAndRecover(final sealAck) (float64, check) {
	// The WAL writes a snapshot in the background after every
	// snapshotEvery-th seal (epoch 1 is the first), and the final seal is
	// one of those. Let it land before the kill, so the restart loads it
	// and replays only the crash tail; a capture the WAL dropped just
	// times out here.
	snap := filepath.Join(s.dir, fmt.Sprintf("snap-%020d.snap", final.epoch))
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(snap); err == nil {
			break
		}
	}
	s.tgt.kill()
	if err := syncFiles(s.dir); err != nil {
		return 0, check{Name: "recovery", Detail: err.Error()}
	}
	out := s.dir + ".recovered"
	start := time.Now()
	t, err := startProcess(s.o.lbserve, "-listen", "127.0.0.1:0", "-wal-dir", s.dir,
		"-wal-sync", s.w.sync, "-snapshot-every", fmt.Sprint(snapshotEvery), "-recovered-out", out)
	if err != nil {
		return 0, check{Name: "recovery", Detail: err.Error()}
	}
	took := time.Since(start).Seconds()
	t.kill()
	b, err := os.ReadFile(out)
	os.Remove(out)
	if err != nil {
		return took, check{Name: "recovery", Detail: err.Error()}
	}
	if got := strings.TrimSpace(string(b)); got != final.line() {
		return took, check{Name: "recovery", Detail: fmt.Sprintf("recovered %q, want %q", got, final.line())}
	}
	return took, check{Name: "recovery", OK: true, Detail: "recovered " + final.line()}
}

// syncFiles fsyncs every file in dir. The crash tail leaves tens of MB
// of the log in the page cache; writing them back while the restarts
// read them would time the disk instead of the recovery.
func syncFiles(dir string) error {
	es, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range es {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// totals sums the drivers' request and failure counts with the
// session's synchronous ones.
func (s *session) totals() (attempted, failed uint64) {
	attempted, failed = s.syncSent, s.syncFailed
	for _, d := range s.ds {
		attempted += d.sent
		failed += d.failed()
	}
	return attempted, failed
}

// merged returns the connections' histograms merged.
func (s *session) merged(get func(*connDriver) *hist) *hist {
	var h hist
	for _, d := range s.ds {
		h.merge(get(d))
	}
	return &h
}

// ackLatency returns the fixed phase's ack latencies merged over
// connections and windows, and the median over windows of each
// window's p99.
func (s *session) ackLatency() (*hist, float64) {
	var all hist
	var p99s []float64
	for w := range s.ds[0].ackLat {
		h := s.merged(func(d *connDriver) *hist { return &d.ackLat[w] })
		all.merge(h)
		if h.n > 0 {
			p99s = append(p99s, float64(h.quantile(0.99)))
		}
	}
	return &all, median(p99s)
}

// batchRates returns the batch phase's ops/s and the server's CPU µs
// per op, each as measured and at the reference kernel's nominal host
// speed (hostref.go). Each slice is scaled by the units timed within it,
// since the host's speed changes within a run; each figure is then the
// median over slices. A slice's ops/s is batchOps over its median round
// trip; its CPU per op is the server's CPU time in the slice over the OK
// bids and reads acknowledged in it (zero without /proc, in process).
func (s *session) batchRates(pm *procMarks) (rate, rateNominal, cpu, cpuNominal, hostSpeed float64) {
	d := s.ds[0]
	var rates, ratesN, cpus, cpusN, speeds []float64
	for i, rtts := range d.sliceRTT {
		if len(rtts) == 0 || len(d.sliceRef[i].units) == 0 {
			continue
		}
		sp := speed(&d.sliceRef[i])
		speeds = append(speeds, sp)
		r := batchOps / (median(rtts) / 1e9)
		rates, ratesN = append(rates, r), append(ratesN, r/sp)
		if n := d.sliceOK[i]; len(pm.batch) > i+1 && n > 0 {
			c := (pm.batch[i+1].cpuS - pm.batch[i].cpuS) * 1e6 / float64(n)
			cpus, cpusN = append(cpus, c), append(cpusN, c*sp)
		}
	}
	return median(rates), median(ratesN), median(cpus), median(cpusN), median(speeds)
}

func (s *session) mutOK() uint64 {
	var n uint64
	for _, d := range s.ds {
		n += d.mutOK
	}
	return n
}

// setUpRepeated opens sessions until their set-ups have taken
// setupBudget in total and there have been at least minSetups, timing
// the reference kernel before each while no server runs. It returns
// the last session, kept open, each set-up's time in seconds, and each
// one's host speed.
func (o *options) setUpRepeated(w workload) (*session, []float64, []float64, error) {
	kernel, err := newRefKernel()
	if err != nil {
		return nil, nil, nil, err
	}
	defer kernel.close()
	var setups, speeds []float64
	var total time.Duration
	for k := 0; ; k++ {
		var ref hostRef
		if err := ref.burst(kernel, refBurst); err != nil {
			return nil, nil, nil, err
		}
		s, err := o.openSession(w, false, fmt.Sprintf("%s-%d", w.name, k))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups, speeds = append(setups, s.setup.Seconds()), append(speeds, speed(&ref))
		total += s.setup
		if k+1 >= minSetups && total >= setupBudget {
			return s, setups, speeds, nil
		}
		s.close()
	}
}

// runUntraced measures the end-to-end metrics against lbserve.
func (o *options) runUntraced(w workload) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Detail: map[string]float64{}}
	s, setups, setupSpeeds, err := o.setUpRepeated(w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	d0 := s.ds[0]
	p := s.newPlan(1, 8, 7)
	pm, err := s.measure(p)
	if err != nil {
		return nil, err
	}
	final, cs := s.finish()
	// The crash comes after a fixed tail of unsealed rebids, so the
	// restart replays the same work on top of the last snapshot.
	tp := &plan{base: time.Now()}
	if err := runConns(s.ds, tp, func(d *connDriver) error { return d.rebids(tp, crashTail/len(s.ds)) }); err != nil {
		return nil, fmt.Errorf("crash tail: %w", err)
	}
	rss, err := peakRSSMB(s.tgt.pid)
	if err != nil {
		return nil, err
	}
	recov, rc := s.crashAndRecover(final)
	res.addChecks(append(cs, s.checkStatus(), rc)...)
	res.Attempted, res.Failed = s.totals()

	rate, rateNominal, cpu, cpuNominal, hostSpeed := s.batchRates(&pm)
	setupsNominal := make([]float64, len(setups))
	for k, t := range setups {
		setupsNominal[k] = t * math.Sqrt(setupSpeeds[k])
	}
	vals := map[string]float64{
		"setup_s":           median(setupsNominal),
		"batch_ops_s":       rateNominal,
		"cpu_us_per_op":     cpuNominal,
		"rss_peak_mb":       rss,
		"disk_bytes_per_op": float64(pm.batch[0].writeBytes-pm.fixed0.writeBytes) / float64(s.mutOK()),
	}
	if res.Metrics, err = fill(e2eMetrics, vals); err != nil {
		return nil, err
	}
	ack, ackP99 := s.ackLatency()
	late := s.merged(func(d *connDriver) *hist { return &d.late })
	res.Detail["host_speed"] = hostSpeed
	res.Detail["setups"] = float64(len(setups))
	res.Detail["setup_s_measured"] = median(setups)
	res.Detail["host_speed_setup"] = median(setupSpeeds)
	res.Detail["batch_ops_s_measured"] = rate
	res.Detail["cpu_us_per_op_measured"] = cpu
	res.Detail["recover_s"] = recov
	res.Detail["batches"] = 0
	for _, rtts := range d0.sliceRTT {
		res.Detail["batches"] += float64(len(rtts))
	}
	res.Detail["seal_samples"] = float64(d0.sealLat.n)
	res.Detail["seal_p50_ms"] = float64(d0.sealLat.quantile(0.50)) / 1e6
	res.Detail["seal_p95_ms"] = float64(d0.sealLat.quantile(0.95)) / 1e6
	res.Detail["ack_samples"] = float64(ack.n)
	res.Detail["ack_p50_ms"] = float64(ack.quantile(0.50)) / 1e6
	res.Detail["ack_p99_ms"] = ackP99 / 1e6
	res.Detail["ack_p99_whole_phase_ms"] = float64(ack.quantile(0.99)) / 1e6
	res.Detail["ack_limit_ms"] = w.ackLimitMs
	res.Detail["ack_limit_met"] = 0
	if res.Detail["ack_p99_whole_phase_ms"] <= w.ackLimitMs && res.Failed == 0 {
		res.Detail["ack_limit_met"] = 1
	}
	res.Detail["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Detail["gen_late_p99_ms"] = float64(late.quantile(0.99)) / 1e6
	res.Detail["final_epoch"] = float64(final.epoch)
	return res, nil
}

// runTraced measures the per-layer metrics: the fixed-rate and batch
// phases against the traced composition, then a batch phase of equal
// length against lbserve for the tracing overhead.
func (o *options) runTraced(w workload) (*runResult, error) {
	res, vals, tracedRate, err := o.measureTraced(w)
	if err != nil {
		return nil, err
	}
	u, err := o.openSession(w, false, w.name+"-untraced")
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	defer u.close()
	upm, err := u.measure(u.newPlan(1, 0, 4))
	if err != nil {
		return nil, err
	}
	_, ucs := u.finish()
	ucs = append(ucs, u.checkStatus())
	for i := range ucs {
		ucs[i].Name = "untraced_" + ucs[i].Name
	}
	ua, uf := u.totals()
	res.Attempted, res.Failed = res.Attempted+ua, res.Failed+uf
	res.addChecks(ucs...)

	// Both rates are at nominal host speed, since the two phases run
	// seconds apart.
	_, untracedRate, _, _, _ := u.batchRates(&upm)
	vals["trace.overhead_frac"] = 1 - tracedRate/untracedRate
	if res.Metrics, err = fill(layerMetrics, vals); err != nil {
		return nil, err
	}
	res.Detail["untraced_batch_ops_s"] = untracedRate
	return res, nil
}

// measureTraced runs warm-up, the fixed-rate and the batch phases
// against the traced composition, checks the outputs, and returns every
// per-layer metric but the tracing overhead, and the traced batch ops/s.
func (o *options) measureTraced(w workload) (*runResult, map[string]float64, float64, error) {
	res := &runResult{Workload: w.name, Seed: o.seed, Traced: true, Seconds: o.seconds, Detail: map[string]float64{}}
	s, err := o.openSession(w, true, w.name+"-traced")
	if err != nil {
		return nil, nil, 0, fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	for _, d := range s.ds {
		d.tr = newSpanLog(genSpans)
	}
	p := s.newPlan(1, 6, 4)
	pm, err := s.measure(p)
	if err != nil {
		return nil, nil, 0, err
	}
	_, cs := s.finish()
	for _, d := range s.ds {
		d.c.Close() // the server's drain then ends at once instead of after its grace
	}
	st, err := s.tgt.stopTraced()
	if err != nil {
		return nil, nil, 0, err
	}
	if len(st.Marks) != 3 {
		return nil, nil, 0, fmt.Errorf("traced server saw %d phase marks, want 3", len(st.Marks))
	}
	res.Attempted, res.Failed = s.totals()
	res.addChecks(append(cs, s.checkStatus())...)
	_, tracedRate, _, _, _ := s.batchRates(&pm)
	res.Detail["traced_batch_ops_s"] = tracedRate
	res.Detail["server.coverage_fixed"] = st.Windows[0].coverage()
	res.Detail["dropped_spans"] = float64(st.Dropped)
	gen := []windowAgg{{Start: p.fixedStart, End: p.fixedEnd}, {Start: p.fixedEnd, End: p.batchEnd}}
	for _, d := range s.ds {
		for i := range gen {
			gen[i].aggregate(d.tr.spans, false)
		}
		res.Detail["dropped_spans"] += float64(d.tr.dropped)
	}
	res.Trace = &traceData{Server: st, Generator: gen}
	return res, layerValues(s, pm, st, &gen[1]), tracedRate, nil
}

// layerValues derives the per-layer metrics from the traced server's
// windows and obs snapshots, the generator's own spans and histograms,
// and the traced server's /proc counters.
func layerValues(s *session, pm procMarks, st *serverTrace, gw *windowAgg) map[string]float64 {
	bw := &st.Windows[1]
	o0, o1, o2 := st.Marks[0].Obs, st.Marks[1].Obs, st.Marks[2].Obs
	ops := obsDelta(o1, o2, "lb_server_ops_total")
	batchS := float64(bw.End-bw.Start) / 1e9
	perOp := func(x float64) float64 { return x / max(ops, 1) }
	perKop := func(x float64) float64 { return 1000 * perOp(x) }
	mean := func(k *kindAgg, scale float64) float64 { return float64(k.Ns) / float64(max(k.Count, 1)) / scale }
	perCall := func(k *kindAgg) float64 { return float64(k.N) / float64(max(k.Count, 1)) }

	var outMax uint64
	for _, d := range s.ds {
		outMax = max(outMax, d.outMax)
	}
	enc, fl := &gw.Kinds[spEncode], &gw.Kinds[spFlush]
	late := s.merged(func(d *connDriver) *hist { return &d.late })
	appendCalls := st.Marks[2].Journal.Mutations - st.Marks[1].Journal.Mutations
	// The batch phase sends no seals, so every commit in it is a group
	// commit inside a mutation call.
	commitNs := 1e9 * (o2["lb_wal_commit_seconds"].Sum - o1["lb_wal_commit_seconds"].Sum)
	rd, wr := &bw.Kinds[spRead], &bw.Kinds[spWrite]
	v := map[string]float64{
		"lbclient.encode_ns_per_op": float64(enc.Ns) / float64(max(enc.N, 1)),
		"lbclient.flush_us_mean":    mean(fl, 1e3),
		"lbclient.flushes_per_kop":  1000 * float64(fl.Count) / float64(max(enc.N, 1)),
		"gen.late_p99_ms":           float64(late.quantile(0.99)) / 1e6,
		"gen.outstanding_max":       float64(outMax),

		"server.wakeups_per_s":        float64(rd.Count) / batchS,
		"server.reqs_per_wakeup":      ops / float64(max(rd.Count, 1)),
		"server.batch_ops_mean":       histMean(o1, o2, "lb_server_batch_ops"),
		"server.read_us_mean":         mean(rd, 1e3),
		"server.read_bytes_per_call":  perCall(rd),
		"server.process_ns_per_op":    perOp(float64(bw.Kinds[spProcess].Ns)),
		"server.self_ns_per_op":       perOp(bw.serverSelfNs(appendCalls, commitNs)),
		"server.write_us_mean":        mean(wr, 1e3),
		"server.write_bytes_per_call": perCall(wr),
		"server.overloads":            obsDelta(o0, o2, "lb_server_overload_rejections_total"),
		"server.coverage":             bw.coverage(),

		"registry.seal_ms_p50":     1e3 * histQuantile(o0, o1, "lb_registry_seal_seconds", 0.50),
		"registry.seal_ms_p95":     1e3 * histQuantile(o0, o1, "lb_registry_seal_seconds", 0.95),
		"registry.batches_per_kop": perKop(obsDelta(o1, o2, "lb_registry_batches_total")),
		"registry.coalesced_frac":  obsDelta(o1, o2, "lb_registry_coalesced_rebids_total") / max(obsDelta(o1, o2, "lb_registry_updates_total"), 1),
		"registry.rebuilds":        obsDelta(o1, o2, "lb_registry_partial_rebuilds_total"),

		"wal.append_ns_p50":         st.AppendP50Ns[1],
		"wal.append_ns_p99":         st.AppendP99Ns[1],
		"wal.sealed_us_p50":         st.SealedP50Ns[0] / 1e3,
		"wal.published_ms_p50":      st.PubP50Ns[0] / 1e6,
		"wal.fsyncs_per_kop":        1000 * obsDelta(o0, o1, "lb_wal_fsyncs_total") / max(obsDelta(o0, o1, "lb_server_ops_total"), 1),
		"wal.commit_ms_p50":         1e3 * histQuantile(o0, o1, "lb_wal_commit_seconds", 0.50),
		"wal.commit_ms_p95":         1e3 * histQuantile(o0, o1, "lb_wal_commit_seconds", 0.95),
		"wal.snapshots":             obsDelta(o0, o2, "lb_wal_snapshots_total"),
		"wal.appended_bytes_per_op": perOp(obsDelta(o1, o2, "lb_wal_appended_bytes_total")),

		"os.server_cpu_frac":      pm.batchDelta().cpuS / (float64(gw.End-gw.Start) / 1e9 * float64(runtime.NumCPU())),
		"os.server_ctxsw_per_kop": perKop(float64(pm.batchDelta().ctxsw)),
	}
	return v
}
