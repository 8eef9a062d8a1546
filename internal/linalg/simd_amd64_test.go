//go:build amd64 && !noasm

package linalg

import (
	"os"
	"regexp"
	"runtime"
	"testing"
)

// cpuFlags returns the flags line of /proc/cpuinfo, skipping the test
// where there is none to read.
func cpuFlags(t *testing.T) string {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("reads the CPU flags from /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	line := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(info)
	if line == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	return string(line)
}

// hasFlag reports whether the flags line lists flag as a whole word.
func hasFlag(flags, flag string) bool {
	return regexp.MustCompile(`\b` + flag + `\b`).MatchString(flags)
}

// TestSIMDDetectedWhereCPUHasAVX512 guards the feature detection behind
// every packed kernel: a CPU the kernel reports as AVX-512F capable
// must get the vectorized path. A broken CPUID/XCR0 check would
// otherwise fall back to the generic loops silently — same results,
// several times the cost.
func TestSIMDDetectedWhereCPUHasAVX512(t *testing.T) {
	if !hasFlag(cpuFlags(t), "avx512f") {
		t.Skip("CPU flags do not list avx512f")
	}
	if !SIMDEnabled() {
		t.Fatal("/proc/cpuinfo lists avx512f but SIMDEnabled() is false")
	}
}

// TestExpKernelDetectedWhereCPUHasAVX512AndFMA guards the exp kernel's
// gate the same way: a CPU that lists both avx512f and fma must run
// ExpInto through the kernel. TestExpKernelTakesLeakageExponents then
// checks that the kernel keeps the leakage model's inputs.
func TestExpKernelDetectedWhereCPUHasAVX512AndFMA(t *testing.T) {
	flags := cpuFlags(t)
	if !hasFlag(flags, "avx512f") || !hasFlag(flags, "fma") {
		t.Skip("CPU flags do not list both avx512f and fma")
	}
	if !expAvailable {
		t.Fatal("/proc/cpuinfo lists avx512f and fma but the exp kernel is off")
	}
}
