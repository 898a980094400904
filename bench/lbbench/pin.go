package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU confines every thread of this process to the last CPU the
// process may run on, and sets GOMAXPROCS to 1. Threads started later
// inherit the mask, and so do the servers this process execs, whose Go
// runtimes then see one CPU.
//
// On a VM with a few vCPUs the generator and the server, each on a vCPU
// of its own, hand every batch across vCPUs, and waking an idle vCPU
// takes a trip through the host's scheduler. How long that trip takes
// depends on the host's load, not on the program: unpinned, the batch
// round trip's run-to-run spread was several times wider than pinned.
// On one vCPU the two processes take turns, and a round trip is the two
// sides' work plus two context switches.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return 0, err
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	runtime.GOMAXPROCS(1)
	// A thread the runtime starts while this loop runs is cloned from a
	// thread that may not be pinned yet, so repeat until a pass finds
	// every thread pinned.
	for changed := true; changed; {
		changed = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			var cur cpuMask
			if schedAffinity(syscall.SYS_SCHED_GETAFFINITY, tid, &cur) == nil && cur == one {
				continue
			}
			if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && err != syscall.ESRCH {
				return 0, err
			}
			changed = true
		}
	}
	return cpu, nil
}

func schedAffinity(trap uintptr, tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}
