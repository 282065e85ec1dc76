package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankSlack absorbs the rounding of products like 0.9 x 100, which must
// count as exactly 90.
const rankSlack = 1e-9

// percentile is the nearest-rank percentile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)) - rankSlack))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the tails the harness may report, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// supportedTail applies the reporting rule "the highest percentile with at
// least ten samples beyond it" to a wanted tail: it returns want when n
// samples support it, otherwise the highest lower tail they do support,
// and 0.5 (the median) when even p75 has fewer than ten samples beyond it.
func supportedTail(n int, want float64) float64 {
	for _, p := range tailPercentiles {
		if p <= want && float64(n)*(1-p) >= 10-rankSlack {
			return p
		}
	}
	return 0.5
}

// tail reports the wanted tail of xs under the ten-samples-beyond rule.
func tail(xs []float64, want float64) float64 {
	return percentile(xs, supportedTail(len(xs), want))
}

// usage is a point-in-time reading of the process's cumulative resource
// counters; sub turns two readings into the cost of the phase between.
type usage struct {
	cpu      time.Duration // user+sys, getrusage(RUSAGE_SELF)
	allocB   uint64        // runtime.MemStats.TotalAlloc
	gcCycles uint32
	gcPause  time.Duration
	maxRSSKB int64 // peak, not a delta: sub keeps the later reading
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad who or pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		maxRSSKB: ru.Maxrss,
	}
}

func (u usage) sub(before usage) usage {
	return usage{
		cpu:      u.cpu - before.cpu,
		allocB:   u.allocB - before.allocB,
		gcCycles: u.gcCycles - before.gcCycles,
		gcPause:  u.gcPause - before.gcPause,
		maxRSSKB: u.maxRSSKB,
	}
}

// littleRatio checks the closed loop against Little's law: with window
// requests always outstanding, window = throughput x mean latency, so the
// ratio is 1 when the generator kept the window full and the latencies
// and the throughput were measured over the same requests.
func littleRatio(window int, runsPerS, meanLatencyS float64) float64 {
	if runsPerS <= 0 || meanLatencyS <= 0 {
		return 0
	}
	return float64(window) / (runsPerS * meanLatencyS)
}

var calibSink uint64

// calibrate times a fixed pure-Go integer loop (no allocation, no memory
// traffic beyond registers). It is run before each phase so that a slow
// host can be told from a slow program: the loop's work never changes.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

// hostSteal reads the host's cumulative stolen and total CPU time, in
// clock ticks, from the first line of /proc/stat: time the hypervisor ran
// someone else while this machine wanted to run. It is printed with each
// phase so that a slow phase on a busy host can be recognised; 0, 0 where
// /proc/stat is not available.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
