//go:build amd64 && !noasm

package linalg

import (
	"os"
	"regexp"
	"runtime"
	"testing"
)

// TestSIMDDetectedWhereCPUHasAVX512 guards the feature detection behind
// every packed kernel: a CPU the kernel reports as AVX-512F capable
// must get the vectorized path. A broken CPUID/XCR0 check would
// otherwise fall back to the generic loops silently — same results,
// several times the cost.
func TestSIMDDetectedWhereCPUHasAVX512(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the CPU flags from /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	if !regexp.MustCompile(`(?m)^flags\s*:.*\bavx512f\b`).Match(info) {
		t.Skip("CPU flags do not list avx512f")
	}
	if !SIMDEnabled() {
		t.Fatal("/proc/cpuinfo lists avx512f but SIMDEnabled() is false")
	}
}
