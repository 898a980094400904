package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' of its own; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	line := []byte("4242 (lb serve) (x)) S 1 4242 4242 0 -1 4194560 2000 0 0 0 250 50 0 0 20 0 9 0 123 456789 1234 18446744073709551615\n")
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Fatalf("cpu %gs, want 3s", got)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
	if _, err := parseStatCPU([]byte("no command")); err == nil {
		t.Fatal("a stat line without a command field parsed")
	}
}

func TestParseKeyed(t *testing.T) {
	status := []byte("Name:\tlbserve\nVmPeak:\t  812340 kB\nVmHWM:\t  179892 kB\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n")
	io := []byte("rchar: 1\nwchar: 2\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 25116672\ncancelled_write_bytes: 0\n")
	for _, c := range []struct {
		b    []byte
		key  string
		want int64
	}{
		{status, "VmHWM", 179892},
		{status, "voluntary_ctxt_switches", 17},
		{status, "nonvoluntary_ctxt_switches", 3},
		{io, "write_bytes", 25116672},
	} {
		got, err := parseKeyed(c.b, c.key)
		if err != nil || got != c.want {
			t.Errorf("%s = %d, %v; want %d", c.key, got, err, c.want)
		}
	}
	if _, err := parseKeyed(status, "VmRSS"); err == nil {
		t.Error("missing key parsed")
	}
}

// TestReadProcSelf reads this process's own counters, which exist on
// any Linux host.
func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.ctxsw <= 0 || s.cpuS < 0 || s.writeBytes < 0 {
		t.Fatalf("implausible sample %+v", s)
	}
	if rss, err := peakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Fatalf("peak RSS %g MiB, %v", rss, err)
	}
}

func TestMountOf(t *testing.T) {
	mi := []byte(`22 1 254:0 / / rw,relatime shared:1 - ext4 /dev/vda rw
30 22 0:25 / /proc rw,nosuid - proc proc rw
31 22 0:26 / /srv/checkout/.bench_build rw - tmpfs tmpfs rw
`)
	for _, c := range []struct{ path, point, fs string }{
		{"/srv/checkout/.bench_build/work-1", "/srv/checkout/.bench_build", "tmpfs"},
		{"/srv/checkout/.bench_buildx", "/", "ext4"},
		{"/proc", "/proc", "proc"},
	} {
		point, fs, _ := mountOf(mi, c.path)
		if point != c.point || fs != c.fs {
			t.Errorf("%s: mount %s (%s), want %s (%s)", c.path, point, fs, c.point, c.fs)
		}
	}
}
