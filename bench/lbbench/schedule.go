package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"syscall"
	"unsafe"
)

// poisson is an open-loop arrival schedule: exponential gaps drawn from
// its own stream, accumulated from a fixed start. The schedule never
// resets to "now", so a consumer that falls behind finds arrivals
// already due and accrues lateness instead of stretching the schedule
// (coordinated omission).
type poisson struct {
	next int64   // ns on the run's clock
	gap  float64 // mean gap, ns
	rng  *rand.Rand
}

func newPoisson(start int64, rate float64, rng *rand.Rand) *poisson {
	p := &poisson{next: start, gap: 1e9 / rate, rng: rng}
	p.pop()
	return p
}

// peek returns the next arrival time; pop consumes and returns it.
func (p *poisson) peek() int64 { return p.next }

func (p *poisson) pop() int64 {
	t := p.next
	p.next += int64(math.Round(p.rng.ExpFloat64() * p.gap))
	return t
}

// paceQuantum is the shortest sleep of an open-loop writer. Arrivals
// due within it are sent together on the next wakeup, so the writer
// makes at most 20k wakeups and flushes a second however high the
// rate; the wait it adds shows up in gen.late_p99_ms and in the ack
// latencies, which are timed from the schedule.
const paceQuantum = 50_000 // ns

// pacer sleeps a goroutine with microsecond precision on a timerfd
// read through the runtime's poller. time.Sleep is no substitute: the
// runtime resolves sub-millisecond sleeps to a whole millisecond when
// it waits in epoll, which would batch arrivals twenty times coarser
// than paceQuantum. A blocking nanosleep would be precise but would
// hold one of the process's GOMAXPROCS slots while it sleeps, stalling
// the response readers.
type pacer struct {
	f  *os.File
	rc syscall.RawConn
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pacer{f: f, rc: rc}, nil
}

// sleep blocks the calling goroutine for d nanoseconds.
func (p *pacer) sleep(d int64) error {
	its := [2]syscall.Timespec{{}, syscall.NsecToTimespec(d)} // interval, value
	var errno syscall.Errno
	if err := p.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
