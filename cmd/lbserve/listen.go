package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wal"
)

// listenConfig configures the -listen networked serving mode.
type listenConfig struct {
	addr         string
	walDir       string // "" = volatile registry, no journal
	sync         wal.SyncPolicy
	snapEvery    int
	rate         float64
	shards       int
	sealInterval time.Duration
	recoveredOut string // write the recovered epoch line here (for the kill-9 smoke's cmp)
	ob           *obs.Observer
}

// runListen serves the registry over TCP until SIGINT/SIGTERM, then
// drains connections gracefully and commits the WAL. With -wal-dir it
// first recovers whatever log the directory holds, so a kill -9 /
// restart cycle resumes from bitwise-identical sealed epochs.
func runListen(cfg listenConfig, out io.Writer) int {
	var (
		reg *registry.Registry
		w   *wal.Writer
		err error
	)
	if cfg.walDir != "" {
		var info *wal.Info
		reg, w, info, err = wal.Open(cfg.walDir,
			wal.Options{Sync: cfg.sync, SnapshotEvery: cfg.snapEvery, Metrics: cfg.ob.WALMetrics()},
			registry.Config{Rate: cfg.rate, Shards: cfg.shards, Metrics: cfg.ob.RegistryMetrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
		if info.Fresh {
			fmt.Fprintf(out, "lbserve: fresh write-ahead log under %s (sync=%s)\n", cfg.walDir, cfg.sync)
		} else {
			snap := reg.Snapshot()
			fmt.Fprintf(out, "lbserve: recovered %s: epoch=%d n=%d s=0x%016x\n",
				cfg.walDir, snap.Epoch(), snap.N(), math.Float64bits(snap.Sum()))
		}
	} else {
		reg, err = registry.New(registry.Config{Rate: cfg.rate, Shards: cfg.shards, Metrics: cfg.ob.RegistryMetrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
	}
	if cfg.recoveredOut != "" {
		snap := reg.Snapshot()
		line := fmt.Sprintf("epoch=%d n=%d s=0x%016x\n", snap.Epoch(), snap.N(), math.Float64bits(snap.Sum()))
		if err := os.WriteFile(cfg.recoveredOut, []byte(line), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
	}

	srv := server.New(server.Config{
		Registry:     reg,
		SealInterval: cfg.sealInterval,
		Metrics:      cfg.ob.ServerMetrics(),
	})
	addr, err := srv.Start(cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbserve:", err)
		return 1
	}
	fmt.Fprintf(out, "lbserve: serving on %s (shards=%d", addr, reg.Shards())
	if cfg.sealInterval > 0 {
		fmt.Fprintf(out, ", seal every %s", cfg.sealInterval)
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
		fmt.Fprintf(out, "lbserve: write-ahead log committed under %s\n", cfg.walDir)
	}
	if cfg.ob != nil {
		fmt.Fprintln(out)
		if err := cfg.ob.Dump(out, true, false); err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			return 1
		}
	}
	return 0
}
