package main

// Readers for the /proc files the benchmark samples from the server
// process. Each parser takes the file's bytes so tests can feed it
// fixtures.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture the benchmark runs on.
const clockTicks = 100

// parseStatCPU returns utime+stime, in seconds, from a /proc/<pid>/stat
// line. The command name may itself hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseKeyed returns the integer value of "key:" in a /proc file of
// "key: value [unit]" lines (status, io).
func parseKeyed(b []byte, key string) (int64, error) {
	prefix := []byte(key + ":")
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, prefix) {
			continue
		}
		f := bytes.Fields(line[len(prefix):])
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("%s not found", key)
}

// procSample is one reading of a process's counters.
type procSample struct {
	cpuS       float64 // utime + stime
	ctxsw      int64   // voluntary + involuntary switches over all threads
	writeBytes int64   // bytes sent to the storage layer
}

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d", pid)
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpuS, err = parseStatCPU(b); err != nil {
		return s, err
	}
	if b, err = os.ReadFile(dir + "/io"); err != nil {
		return s, err
	}
	if s.writeBytes, err = parseKeyed(b, "write_bytes"); err != nil {
		return s, err
	}
	tasks, err := filepath.Glob(dir + "/task/*/status")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		v, err1 := parseKeyed(b, "voluntary_ctxt_switches")
		n, err2 := parseKeyed(b, "nonvoluntary_ctxt_switches")
		if err1 != nil || err2 != nil {
			return s, fmt.Errorf("%s: no context-switch counters", t)
		}
		s.ctxsw += v + n
	}
	return s, nil
}

// peakRSSMB returns the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseKeyed(b, "VmHWM")
	return float64(kb) / 1024, err
}
