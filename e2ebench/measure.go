package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// The percentile ladder, in parts per 100,000, that the tail rule picks
// from.
var ladder = []int{50_000, 90_000, 99_000, 99_900, 99_990}

// tailRank returns the highest ladder percentile (parts per 100,000)
// that leaves at least ten of n samples beyond it, and false when even
// the median does not.
func tailRank(n int) (int, bool) {
	best, ok := 0, false
	for _, q := range ladder {
		if n*(100_000-q)/100_000 >= 10 {
			best, ok = q, true
		}
	}
	return best, ok
}

// quantile returns the nearest-rank q-quantile (parts per 100,000) of
// sorted samples.
func quantile(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*q + 99_999) / 100_000 // ceil(n·q)
	return sorted[max(i, 1)-1]
}

// dist summarizes one timing: median, p99, the tail the ten-sample rule
// allows, and the sample count.
type dist struct {
	n        int
	p50, p99 float64 // in the caller's unit
	tailQ    int     // parts per 100,000; 0 when n < 20
	tail     float64
}

func summarize(ns []int64, unit float64) dist {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := dist{n: len(s), p50: float64(quantile(s, 50_000)) / unit, p99: float64(quantile(s, 99_000)) / unit}
	if q, ok := tailRank(len(s)); ok {
		d.tailQ, d.tail = q, float64(quantile(s, q))/unit
	}
	return d
}

func (d dist) String() string {
	tail := "no percentile has ten samples beyond it"
	if d.tailQ > 0 {
		tail = fmt.Sprintf("p%s %.4g", strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.3f", float64(d.tailQ)/1000), "0"), "."), d.tail)
	}
	return fmt.Sprintf("p50 %.4g, %s, n=%d", d.p50, tail, d.n)
}

// sliceMin is the fewest samples one slice of a timing holds, so that
// a slice's p99 has ten samples beyond it.
const sliceMin = 1000

// sliced is the mid-mean, over consecutive slices of at least sliceMin
// time-ordered samples, of each slice's q-quantile (parts per 100,000).
// A stall that hits one slice moves one slice's p99, not the reported
// value; under 2·sliceMin samples it is the plain quantile.
func sliced(ns []int64, q int, unit float64) float64 {
	k := max(len(ns)/sliceMin, 1)
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		s := append([]int64(nil), ns[i*len(ns)/k:(i+1)*len(ns)/k]...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		per = append(per, float64(quantile(s, q))/unit)
	}
	return midMean(per)
}

// midMean is the mean of the middle half of v: the top and bottom
// quarters are dropped, so a rare burst in one slice does not move it,
// and the rest is averaged rather than reduced to one value.
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rtSample reads the runtime counters the traced run reports.
type rtSample struct {
	gcCPU       float64 // seconds
	allocs      uint64
	allocBytes  uint64
	processCPUs int64 // ns, from getrusage
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[2].Value.Uint64()
	}
	out.processCPUs = cpuNs()
	return out
}

// machine describes where a result was measured.
type machine struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
	Config     string `json:"store_config"`
}

func describeMachine() machine {
	return machine{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Config:     configSummary(),
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

// commit reads the checked-out commit from ./.git, if the working
// directory is a git checkout; a plain source tree reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	data, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == name {
			return id
		}
	}
	return "unknown"
}
