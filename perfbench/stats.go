package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"multitherm/internal/linalg"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs without modifying it. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value, averaging the two middle values of an
// even-length slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timePer runs fn in rounds until at least minDur has elapsed and
// returns the mean nanoseconds per call, where each round makes calls
// calls. Calls are timed in bulk so the clock read does not dominate
// sub-microsecond layer calls.
func timePer(minDur time.Duration, calls int, fn func()) float64 {
	fn() // first call outside the clock: lazy buffers, cold caches
	var n int
	start := time.Now()
	for time.Since(start) < minDur {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*calls)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// busyMeter measures parallel.busy_frac and the GC counters over one
// timed phase.
type busyMeter struct {
	wall time.Time
	cpu  float64
	ms   runtime.MemStats
}

func startBusy() *busyMeter {
	m := &busyMeter{wall: time.Now(), cpu: cpuSeconds()}
	runtime.ReadMemStats(&m.ms)
	return m
}

// stop records parallel.busy_frac (process CPU seconds over wall
// seconds times GOMAXPROCS) and the phase's GC and allocation totals.
func (m *busyMeter) stop(b *bench) {
	wall := time.Since(m.wall).Seconds()
	cpu := cpuSeconds() - m.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	b.set("parallel.busy_frac", cpu/(wall*float64(gomaxprocs())))
	b.set("gc.pause_ms", float64(end.PauseTotalNs-m.ms.PauseTotalNs)/1e6)
	b.set("gc.cycles", float64(end.NumGC-m.ms.NumGC))
	b.set("alloc_mb", float64(end.TotalAlloc-m.ms.TotalAlloc)/(1<<20))
	b.note("parallel.busy_frac counts CPU over wall x GOMAXPROCS=%d on %d CPUs", gomaxprocs(), runtime.NumCPU())
}

// metadata describes the machine and the code measured.
func metadata() []string {
	return []string{
		"cpu " + cpuModel(),
		fmt.Sprintf("nproc %d gomaxprocs %d", runtime.NumCPU(), gomaxprocs()),
		"go " + runtime.Version(),
		"commit " + commit(),
		fmt.Sprintf("simd %v", linalg.SIMDEnabled()),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured code: the git commit when the checkout is
// a repository, otherwise a digest of every Go source and module file
// in it, which identifies the same code just as well.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod") || strings.HasSuffix(path, ".s")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
