package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// target is the server under load: an lbserve process, a traced-server
// process (this binary re-executed with -serve-traced), or a traced
// server inside this process (tests).
type target struct {
	addr     string
	pid      int // 0 when in process
	cmd      *exec.Cmd
	exited   chan error // receives cmd.Wait's result
	out      *lineWatch
	traceOut string
	inproc   *tracedServer
	stopped  bool
}

// lineWatch collects a child's output and reports the address from its
// first whole "serving on ADDR" line.
type lineWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.sent {
		return len(p), nil
	}
	_, rest, ok := strings.Cut(w.buf.String(), "serving on ")
	if !ok {
		return len(p), nil
	}
	if line, _, whole := strings.Cut(rest, "\n"); whole {
		if f := strings.Fields(line); len(f) > 0 {
			w.addr <- f[0]
			w.sent = true
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startProcess execs a server and returns once it is listening.
func startProcess(bin string, args ...string) (*target, error) {
	w := &lineWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = w, w
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	t := &target{pid: cmd.Process.Pid, cmd: cmd, exited: make(chan error, 1), out: w}
	go func() { t.exited <- cmd.Wait() }()
	select {
	case t.addr = <-w.addr:
		return t, nil
	case err := <-t.exited:
		return nil, fmt.Errorf("%s exited before listening (%v): %s", bin, err, w.String())
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		<-t.exited
		return nil, fmt.Errorf("%s did not listen within 120s: %s", bin, w.String())
	}
}

// mark tells a traced server that a phase boundary passed.
func (t *target) mark() {
	switch {
	case t.inproc != nil:
		t.inproc.mark()
	case t.traceOut != "":
		t.cmd.Process.Signal(syscall.SIGUSR1)
	}
}

// kill stops the server abruptly — SIGKILL for a process — and waits
// for it to end.
func (t *target) kill() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.inproc != nil {
		t.inproc.stop()
		return
	}
	t.cmd.Process.Kill()
	<-t.exited
}

// stopTraced ends a traced server cleanly and returns its trace.
func (t *target) stopTraced() (*serverTrace, error) {
	t.stopped = true
	if t.inproc != nil {
		return t.inproc.stop()
	}
	t.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-t.exited:
		if err != nil {
			return nil, fmt.Errorf("traced server: %v: %s", err, t.out.String())
		}
	case <-time.After(60 * time.Second):
		t.cmd.Process.Kill()
		<-t.exited
		return nil, fmt.Errorf("traced server did not stop within 60s")
	}
	b, err := os.ReadFile(t.traceOut)
	if err != nil {
		return nil, err
	}
	var st serverTrace
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("traced server output: %w", err)
	}
	return &st, nil
}
