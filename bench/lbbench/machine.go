package main

import (
	"bytes"
	"os"
	"runtime"
	"strings"
)

// machine describes where a result set was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	PinnedCPU  int    `json:"pinned_cpu"` // the one CPU generator and server ran on
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	WALFS      string `json:"wal_fs"`     // filesystem type under the WAL directory
	WALDevice  string `json:"wal_device"` // and its source device
	WALMount   string `json:"wal_mount"`  // mount point
	MemTotalKB int64  `json:"mem_total_kb"`
}

func describeMachine(walDir string) machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		m.MemTotalKB, _ = parseKeyed(b, "MemTotal")
	}
	if b, err := os.ReadFile("/proc/self/mountinfo"); err == nil {
		m.WALMount, m.WALFS, m.WALDevice = mountOf(b, walDir)
	}
	return m
}

// mountOf returns the mount point, filesystem type and source of the
// longest mount point containing path, from /proc/self/mountinfo.
func mountOf(mountinfo []byte, path string) (point, fstype, source string) {
	for _, line := range bytes.Split(mountinfo, []byte("\n")) {
		pre, post, ok := strings.Cut(string(line), " - ")
		if !ok {
			continue
		}
		f, g := strings.Fields(pre), strings.Fields(post)
		if len(f) < 5 || len(g) < 2 {
			continue
		}
		mp := f[4]
		within := path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")
		if within && len(mp) >= len(point) {
			point, fstype, source = mp, g[0], g[1]
		}
	}
	return point, fstype, source
}
