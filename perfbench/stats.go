package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the fixed set of percentiles the tail latency is read at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailBeyond is how many ops must lie beyond the tail percentile.
const tailBeyond = 10

// percentiles returns the nearest-rank median of the op latencies s and
// their tail: the highest ladder percentile that leaves at least tailBeyond
// ops above it, and that percentile's value.
func percentiles(s []float64) (p50, pct, tv float64) {
	if len(s) == 0 {
		return 0, 50, 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		return sorted[max(1, int(math.Ceil(p/100*float64(len(sorted)))))-1]
	}
	pct = 50
	for _, p := range tailLadder {
		if float64(len(s))*(100-p)/100 >= tailBeyond {
			pct = p
			break
		}
	}
	return at(50), pct, at(pct)
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB,
// falling back to the Go runtime's mapped memory where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// goCounters reads cumulative runtime counters without stopping the world:
// bytes allocated on the heap and completed GC cycles. The sample slice is
// reused so reading allocates nothing.
type goCounters struct{ s []metrics.Sample }

func newGoCounters() *goCounters {
	return &goCounters{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (g *goCounters) read() (allocBytes, gcCycles uint64) {
	metrics.Read(g.s)
	return g.s[0].Value.Uint64(), g.s[1].Value.Uint64()
}

// cpuTime returns the CPU time the process has used, user and system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs op i of r and records its wall-clock and process CPU time.
func measure(r runner, i int) outcome {
	w0, c0 := time.Now(), cpuTime()
	out := r.run(i)
	out.wall, out.cpu = time.Since(w0), cpuTime()-c0
	return out
}
