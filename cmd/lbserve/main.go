// Command lbserve serves the concurrent bid registry. It has two
// modes, and exactly one must be given.
//
// With -listen the command is the networked serving front end: a
// framed TCP server (internal/server) accepting pipelined clients
// (internal/lbclient, cmd/lbload) until SIGINT/SIGTERM, optionally
// journaling into a WAL so a killed server restarts from its last
// sealed epoch bit-for-bit:
//
//	lbserve -listen 127.0.0.1:9070
//	lbserve -listen 127.0.0.1:9070 -wal-dir /tmp/lbwal -wal-sync seal
//	lbserve -listen 127.0.0.1:9070 -seal-interval 100ms -metrics
//
// With -health the command runs the self-healing chaos demo: a small
// population under a deterministic fault plan, the internal/health
// control loop verifying every tick, and the degrade → eject → probe →
// slow-start story printed live:
//
//	lbserve -health
//	lbserve -health -plan crash=1,flap=5@6:0.5 -ticks 80 -fault-until 45
//
// -rate, -shards, -metrics, -cpuprofile and -memprofile apply to both
// modes; any flag the chosen mode does not read is a usage error
// (exit 2). The profiles are written when the mode returns, so a
// served process is profiled from start to SIGTERM:
//
//	lbserve -listen 127.0.0.1:9070 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/wal"
)

// modeOf names the one mode that reads each mode-specific flag; the
// flags missing here are read by both modes.
var modeOf = map[string]string{
	"listen":         "-listen",
	"wal-dir":        "-listen",
	"wal-sync":       "-listen",
	"snapshot-every": "-listen",
	"seal-interval":  "-listen",
	"recovered-out":  "-listen",
	"health":         "-health",
	"computers":      "-health",
	"ticks":          "-health",
	"plan":           "-health",
	"fault-from":     "-health",
	"fault-until":    "-health",
	"health-every":   "-health",
	"seed":           "-health",
}

func main() {
	shards := flag.Int("shards", registry.DefaultShards, "lock stripes (rounded up to a power of two)")
	seed := flag.Uint64("seed", 1, "random seed of the -health demo")
	rate := flag.Float64("rate", 20, "total arrival rate R")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	healthMode := flag.Bool("health", false, "run the health control-loop chaos demo")
	computers := flag.Int("computers", 8, "population size of the -health demo")
	ticks := flag.Int("ticks", 80, "control ticks the -health demo runs")
	plan := flag.String("plan", "crash=1,stall=3@0.5:1,byz=5@1.6,flap=6@8:0.75", "fault plan of the -health demo (internal/faults spec)")
	faultFrom := flag.Int("fault-from", 5, "first tick the -health fault plan is active")
	faultUntil := flag.Int("fault-until", 45, "first tick the -health faults are repaired (0 = never)")
	healthEvery := flag.Int("health-every", 20, "ticks between -health state tables (0 = final only)")
	walDir := flag.String("wal-dir", "", "with -listen, journal the registry into a crash-recoverable write-ahead log under this directory")
	walSync := flag.String("wal-sync", "batch", "WAL fsync policy: batch, seal, interval or none (needs -wal-dir)")
	snapshotEvery := flag.Int("snapshot-every", 8, "sealed epochs between WAL snapshot compactions, 0 = never (needs -wal-dir)")
	listen := flag.String("listen", "", "serve the registry over framed TCP on this address")
	sealInterval := flag.Duration("seal-interval", 0, "with -listen, seal an epoch on this cadence in the background (0 = client-driven seals only)")
	recoveredOut := flag.String("recovered-out", "", "with -listen, write the starting epoch/n/S-bits line to this file (comparable against lbload -seal-out)")
	flag.Parse()

	mode := "-listen"
	if *healthMode == (*listen != "") {
		usageError("give exactly one of -listen ADDR and -health")
	}
	if *healthMode {
		mode = "-health"
	}
	flag.Visit(func(f *flag.Flag) {
		if m, ok := modeOf[f.Name]; ok && m != mode {
			usageError(fmt.Sprintf("-%s is not read by %s", f.Name, mode))
		}
		if (f.Name == "wal-sync" || f.Name == "snapshot-every") && *walDir == "" {
			usageError(fmt.Sprintf("-%s needs -wal-dir", f.Name))
		}
	})

	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbserve:", err)
		os.Exit(1)
	}
	var ob *obs.Observer
	if *metrics {
		ob = obs.New(0)
	}
	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbserve:", err)
		os.Exit(1)
	}

	var code int
	if *healthMode {
		code = runHealth(healthConfig{
			computers:  *computers,
			ticks:      *ticks,
			plan:       *plan,
			faultFrom:  *faultFrom,
			faultUntil: *faultUntil,
			seed:       *seed,
			rate:       *rate,
			shards:     *shards,
			every:      *healthEvery,
			ob:         ob,
		}, os.Stdout)
		if code == 0 && ob != nil {
			fmt.Println()
			if err := ob.Dump(os.Stdout, true, false); err != nil {
				fmt.Fprintln(os.Stderr, "lbserve:", err)
				code = 1
			}
		}
	} else {
		code = runListen(listenConfig{
			addr:         *listen,
			walDir:       *walDir,
			sync:         syncPolicy,
			snapEvery:    *snapshotEvery,
			rate:         *rate,
			shards:       *shards,
			sealInterval: *sealInterval,
			recoveredOut: *recoveredOut,
			ob:           ob,
		}, os.Stdout)
	}
	stopProfiles()
	os.Exit(code)
}

// usageError reports a flag combination no mode accepts and exits 2,
// as the flag package does for a malformed flag.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "lbserve:", msg)
	flag.Usage()
	os.Exit(2)
}
