package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule over a sorted copy; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// sample is one timed operation: when it completed (seconds into its
// phase) and its latency.
type sample struct{ at, ms float64 }

func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// maxWindows bounds how many windows windowed splits a phase into.
const maxWindows = 10

// windowed splits the samples, in completion order, into as many equal
// consecutive windows (at most maxWindows) as keep at least ten samples
// beyond the q-quantile in each, and returns the median of the windows'
// q-quantiles together with the per-window values. A burst of stolen
// CPU or a flush stall that covers under half of the windows does not
// move the result.
func windowed(xs []sample, q float64) (float64, []float64) {
	s := append([]sample(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	w := max(1, min(maxWindows, int(float64(len(s))*(1-q)/10)))
	per := make([]float64, w)
	for i := range per {
		per[i] = percentile(values(s[i*len(s)/w:(i+1)*len(s)/w]), q)
	}
	return median(per), per
}

// beyond reports how many samples lie strictly above quantile q: the
// "at least ten samples beyond the reported percentile" rule.
func beyond(n int, q float64) int { return n - int(q*float64(n)+0.999999999) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

var (
	boxOnce sync.Once
	box     map[string]any
)

// boxDescriptor names the machine a result was measured on.
func boxDescriptor() map[string]any {
	boxOnce.Do(func() {
		box = map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpu_model":  cpuModel(),
		}
		if out, err := exec.Command("go", "version").Output(); err == nil {
			box["go_toolchain"] = strings.TrimSpace(string(out))
		}
	})
	return box
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

// writeJSON writes v to path as JSON.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuTimes returns the machine's steal and total CPU time in clock
// ticks from /proc/stat; a run records the share of CPU time the
// hypervisor took away, which explains outlying runs.
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
