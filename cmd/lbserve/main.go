// Command lbserve is the networked serving front end of the concurrent
// bid registry: a framed TCP server (internal/server) accepting
// pipelined clients (internal/lbclient, cmd/lbload) until
// SIGINT/SIGTERM, optionally journaling into a WAL so a killed server
// restarts from its last sealed epoch bit-for-bit. -listen is
// required:
//
//	lbserve -listen 127.0.0.1:9070
//	lbserve -listen 127.0.0.1:9070 -wal-dir /tmp/lbwal -wal-sync seal
//	lbserve -listen 127.0.0.1:9070 -seal-interval 100ms -metrics
//
// -wal-sync and -snapshot-every without -wal-dir are usage errors
// (exit 2). The profiles are written after the drain, so a served
// process is profiled from start to SIGTERM:
//
//	lbserve -listen 127.0.0.1:9070 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wal"
)

var (
	listen        = flag.String("listen", "", "serve the registry over framed TCP on this address (required)")
	shards        = flag.Int("shards", registry.DefaultShards, "lock stripes (rounded up to a power of two)")
	rate          = flag.Float64("rate", 20, "total arrival rate R")
	metrics       = flag.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the drain")
	cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	walDir        = flag.String("wal-dir", "", "journal the registry into a crash-recoverable write-ahead log under this directory")
	walSync       = flag.String("wal-sync", "batch", "WAL fsync policy: batch, seal, interval or none (needs -wal-dir)")
	snapshotEvery = flag.Int("snapshot-every", 8, "sealed epochs between WAL snapshot compactions, 0 = never (needs -wal-dir)")
	sealInterval  = flag.Duration("seal-interval", 0, "seal an epoch on this cadence in the background (0 = client-driven seals only)")
	recoveredOut  = flag.String("recovered-out", "", "write the starting epoch/n/S-bits line to this file (comparable against lbload -seal-out)")
)

func main() {
	flag.Parse()
	if *listen == "" {
		usageError("-listen ADDR is required")
	}
	flag.Visit(func(f *flag.Flag) {
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
	code := serve(syncPolicy, ob, os.Stdout)
	stopProfiles()
	os.Exit(code)
}

// usageError reports a flag combination lbserve does not accept and
// exits 2, as the flag package does for a malformed flag.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "lbserve:", msg)
	flag.Usage()
	os.Exit(2)
}

// serve serves the registry over TCP until SIGINT/SIGTERM, then
// drains connections gracefully and commits the WAL, and returns the
// exit code. With -wal-dir it first recovers whatever log the
// directory holds, so a kill -9 / restart cycle resumes from
// bitwise-identical sealed epochs.
func serve(sync wal.SyncPolicy, ob *obs.Observer, out io.Writer) int {
	var (
		reg *registry.Registry
		w   *wal.Writer
		err error
	)
	if *walDir != "" {
		var info *wal.Info
		reg, w, info, err = wal.Open(*walDir,
			wal.Options{Sync: sync, SnapshotEvery: *snapshotEvery, Metrics: ob.WALMetrics()},
			registry.Config{Rate: *rate, Shards: *shards, Metrics: ob.RegistryMetrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
		if info.Fresh {
			fmt.Fprintf(out, "lbserve: fresh write-ahead log under %s (sync=%s)\n", *walDir, sync)
		} else {
			snap := reg.Snapshot()
			fmt.Fprintf(out, "lbserve: recovered %s: epoch=%d n=%d s=0x%016x\n",
				*walDir, snap.Epoch(), snap.N(), math.Float64bits(snap.Sum()))
		}
	} else {
		reg, err = registry.New(registry.Config{Rate: *rate, Shards: *shards, Metrics: ob.RegistryMetrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
	}
	if *recoveredOut != "" {
		snap := reg.Snapshot()
		line := fmt.Sprintf("epoch=%d n=%d s=0x%016x\n", snap.Epoch(), snap.N(), math.Float64bits(snap.Sum()))
		if err := os.WriteFile(*recoveredOut, []byte(line), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
	}

	srv := server.New(server.Config{
		Registry:     reg,
		SealInterval: *sealInterval,
		Metrics:      ob.ServerMetrics(),
	})
	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbserve:", err)
		return 1
	}
	fmt.Fprintf(out, "lbserve: serving on %s (shards=%d", addr, reg.Shards())
	if *sealInterval > 0 {
		fmt.Fprintf(out, ", seal every %s", *sealInterval)
	}
	fmt.Fprintln(out, ")")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(out, "lbserve: %s, draining...\n", got)
	srv.Shutdown(2 * time.Second)
	snap := reg.Snapshot()
	fmt.Fprintf(out, "lbserve: stopped at epoch=%d n=%d s=0x%016x\n",
		snap.Epoch(), snap.N(), math.Float64bits(snap.Sum()))
	if w != nil {
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
		fmt.Fprintf(out, "lbserve: write-ahead log committed under %s\n", *walDir)
	}
	if ob != nil {
		fmt.Fprintln(out)
		if err := ob.Dump(out, true, false); err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
	}
	return 0
}
