// Command e2ebench is crdtsync's end-to-end benchmark: it runs one seeded
// workload against a three-replica loopback cluster in this process,
// driving the store only through the public crdtsync API, verifies the
// result, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ledger instead, and writes
// its spans to one file under --out.
//
// Usage (from the repository root, which builds the binary first):
//
//	bash e2ebench/run.sh --workload hot-mixed --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"crdtsync"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is one invocation. setups is the number of cluster set-ups
// (setup_s is their median; the last cluster is measured); keys, when
// nonzero, overrides the workload's keyspace. The smoke tests lower both.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	out      string
	keys     int
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := runConfig{setups: 3}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "hot-mixed", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&cfg.out, "out", ".bench_build/out", "directory for traces, results and snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	res, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	line, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int
	endToEnd, layers  []metric
	traced            bool
}

func (r *result) json() map[string]any {
	ms := r.endToEnd
	if r.traced {
		ms = r.layers
	}
	out := map[string]any{}
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out}
}

// totals flattens the cluster-wide counters the metrics difference.
type totals struct {
	wire, digestFrames, piggy       int
	treeRounds, ranges, repairBytes int
	enqueued, dropped, coalesced    int
	meta, payload                   int
	busy                            []int64
}

func totalsOf(s crdtsync.Stats) totals {
	t := totals{
		wire: s.WireBytes, digestFrames: s.DigestFrames, piggy: s.PiggybackedDigests,
		treeRounds: s.TreeRounds, ranges: s.RepairRanges, repairBytes: s.RepairBytes,
		meta: s.Sent.MetadataBytes, payload: s.Sent.PayloadBytes,
		busy: append([]int64(nil), s.SyncWorkerBusyNs...),
	}
	for _, p := range s.Peers {
		t.enqueued += p.Enqueued
		t.dropped += p.Dropped
		t.coalesced += p.Coalesced
		t.wire -= p.DroppedBytes
	}
	return t
}

// stats sums every replica's counters, including those of a replica
// closed for a restart.
func (c *cluster) stats() crdtsync.Stats {
	var s crdtsync.Stats
	c.retMu.Lock()
	s.Add(c.retired)
	c.retMu.Unlock()
	for _, r := range c.live() {
		s.Add(r.st.Stats())
	}
	return s
}

func runBench(cfg runConfig, stdout io.Writer) (*result, error) {
	sp, err := findSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.keys > 0 && !sp.ingest {
		sp.keys = cfg.keys
	}
	in := generate(sp, cfg.seed, cfg.seconds)
	mc := describeMachine()
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%g trace=%v\n", sp.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n", mc.Nproc, mc.GOMAXPROCS, mc.CPU, mc.Go, mc.Commit)
	fmt.Fprintf(stdout, "config: %s; load: one open-loop generator at %g ops/s plus markers every %v, one poller every %v\n",
		mc.Config, sp.rate, markerEvery, pollEvery)

	snapDir := ""
	if sp.restart || cfg.trace {
		snapDir = filepath.Join(cfg.out, fmt.Sprintf("snap-%d", os.Getpid()))
		defer os.RemoveAll(snapDir)
	}
	var c *cluster
	var exp *expect
	var tr *tracer
	var setupTimes []int64
	for i := 0; i < cfg.setups; i++ {
		if cfg.trace {
			tr = newTracer(cfg.seed)
		}
		cc, e, d, err := setup(in, tr, snapDir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, int64(d))
		if i < cfg.setups-1 {
			cc.close()
			continue
		}
		c, exp = cc, e
	}
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	in.preOps = nil
	runtime.GC()

	before, rt0 := totalsOf(c.stats()), readRuntime()
	l := newLoad(c, exp)
	stopPoll := l.run()
	var bufferBytes int
	for _, r := range c.live() {
		bufferBytes += r.st.Memory().BufferBytes
	}
	drained := l.drain(time.Now().Add(phaseDeadline))
	stopPoll()
	after, rt1 := totalsOf(c.stats()), readRuntime()
	if l.restartErr != nil {
		return nil, fmt.Errorf("restart: %w", l.restartErr)
	}

	var markers [replicas]uint64
	markerCount := 0
	for o := range markers {
		n := l.markers[o].Load()
		markers[o] = markerBase + uint64(n)
		markerCount += int(n)
	}
	// A marker still missing after the drain deadline, or any value
	// that fails the gate, is a failed op.
	v := verify(c, exp, markers)
	res := &result{
		correct:   v.failed == 0 && l.issued > 0,
		attempted: l.issued + markerCount,
		failed:    v.failed,
		traced:    cfg.trace,
	}
	win := float64(l.genEnd) / 1e9
	updates := float64(max(l.updates.Load(), 1))
	cpuPer, wirePer := float64(rt1.processCPUs-rt0.processCPUs)/1e3/updates, float64(after.wire-before.wire)/updates
	if v, ok := l.perUpdate(func(c costSample) float64 { return float64(c.cpu) / 1e3 }); ok {
		cpuPer = v
	}
	if v, ok := l.perUpdate(func(c costSample) float64 { return float64(c.wire) }); ok {
		wirePer = v
	}
	// Reads are the generator's where the workload has any; on the
	// write-only workloads the poller's marker reads are the only ones.
	readLat, readSvcNs := l.gen.readLat, l.gen.readSvc
	if len(readLat) == 0 {
		readLat, readSvcNs = l.pol.readLat, l.pol.readSvc
	}
	writes, reads, visible := summarize(l.gen.writeLat, 1e6), summarize(readLat, 1e6), summarize(l.pol.visible, 1e6)
	lag := summarize(l.gen.lag, 1e6)
	writeSvc, readSvc := summarize(l.gen.writeSvc, 1e3), summarize(readSvcNs, 1e3)
	timings := []metric{
		{"visible_p50_ms", "ms", sliced(l.pol.visible, 50_000, 1e6)},
		{"visible_p99_ms", "ms", sliced(l.pol.visible, 99_000, 1e6)},
		{"write_p50_ms", "ms", sliced(l.gen.writeLat, 50_000, 1e6)},
		{"read_p50_ms", "ms", sliced(readLat, 50_000, 1e6)},
	}
	// The write and read tails are stall-dominated (a woken generator
	// waits for a free processor), and their run-to-run spread exceeds
	// any bound a gate could hold, so they are reported with the
	// per-layer numbers rather than gated.
	tails := []metric{
		{"write_p99_ms", "ms", sliced(l.gen.writeLat, 99_000, 1e6)},
		{"read_p99_ms", "ms", sliced(readLat, 99_000, 1e6)},
	}
	l.gen, l.pol, readLat, readSvcNs = samples{}, samples{}, nil, nil
	in.ops = nil

	// Heap per key: everything the load itself held is dropped above.
	// The second collection empties what sync.Pool victim caches kept
	// alive through the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	keysHeld := 0
	for _, r := range c.live() {
		keysHeld += r.st.NumKeys()
	}

	res.endToEnd = append(append([]metric{
		{"setup_s", "s", medianNs(setupTimes) / 1e9}}, timings...),
		metric{"achieved_ops_per_s", "ops/s", float64(l.issued) / win},
		metric{"cpu_us_per_update", "us", cpuPer},
		metric{"wire_bytes_per_update", "B", wirePer},
		metric{"heap_bytes_per_key", "B", float64(ms.HeapAlloc) / float64(max(keysHeld, 1))},
	)
	fmt.Fprintf(stdout, "set-ups: %d, median %.3f s, each:", len(setupTimes), medianNs(setupTimes)/1e9)
	for _, d := range setupTimes {
		fmt.Fprintf(stdout, " %.3f", float64(d)/1e9)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "window %.3f s: %d ops (%d updates), %d markers; drained before the deadline: %v\n", win, l.issued, l.updates.Load(), markerCount, drained)
	fmt.Fprintf(stdout, "window and drain: %.1f us CPU and %.0f wire bytes per update\n", float64(rt1.processCPUs-rt0.processCPUs)/1e3/updates, float64(after.wire-before.wire)/updates)
	fmt.Fprintf(stdout, "whole-window timings (the metrics below are mid-means over slices of %d+ samples):\n", sliceMin)
	fmt.Fprintf(stdout, "  visible ms: %v\n  write ms:   %v\n  read ms:    %v\n  gen lag ms: %v\n", visible, writes, reads, lag)
	if sp.restart {
		fmt.Fprintf(stdout, "catchup_s %.4f s (reopen of replica %d until it held every earlier update)\n", l.catchup.Seconds(), l.restartIdx)
	}
	printMetrics(stdout, "end-to-end", res.endToEnd)
	printMetrics(stdout, "ungated tails", tails)
	fmt.Fprintf(stdout, "failed_ratio %.6g (%d of %d ops)\n", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	for _, reason := range v.reasons {
		fmt.Fprintln(stdout, "verification failed:", reason)
	}
	resultsPath := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", sp.name, cfg.seed, b2i(cfg.trace)))
	saveResult(resultsPath, mc, cfg, res)

	if !cfg.trace {
		return res, nil
	}
	snap := snapshotProbe{ms: l.snapshotMs, bytes: float64(l.snapshotBytes), restoreMs: l.restoreMs, keys: float64(l.restored)}
	if !sp.restart {
		if snap, err = probeRestart(c); err != nil {
			return nil, fmt.Errorf("snapshot probe: %w", err)
		}
	}
	replay := replayCodec(tr.frames(), c)
	fmt.Fprintf(stdout, "codec replay: %d sampled frames, %d items; %d states encoded\n", replay.frames, replay.items, replay.keys)
	res.layers = append(tails, layerMetrics(tr, before, after, rt0, rt1, win, updates, writeSvc, readSvc, lag, bufferBytes, snap, replay)...)
	printMetrics(stdout, "per-layer", res.layers)
	all := tr.allSpans()
	rows := ledger(all)
	fmt.Fprintln(stdout, "ledger (span name, count, total ms, self ms, p50 us, p99 us):")
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-26s %8d %10.1f %10.1f %9.1f %9.1f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.P50Us, r.P99Us)
	}
	overhead := traceOverhead(filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace0.json", sp.name, cfg.seed)), res.endToEnd)
	if overhead == nil {
		fmt.Fprintln(stdout, "tracing overhead: no untraced result for this workload and seed under --out")
	}
	for _, o := range overhead {
		fmt.Fprintf(stdout, "tracing overhead %s: %s\n", o.Name, o.Text)
	}
	tracePath := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed))
	header := map[string]any{"workload": sp.name, "seed": cfg.seed, "machine": mc, "ledger": rows, "overhead": overhead, "spans": len(all)}
	if err := writeTrace(tracePath, header, all); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(all), tracePath)
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func medianNs(v []int64) float64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(quantile(s, 50_000))
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// saveResult keeps the run's end-to-end metrics so a traced run of the
// same workload and seed can report the tracing overhead.
func saveResult(path string, mc machine, cfg runConfig, res *result) {
	m := map[string]float64{}
	for _, x := range res.endToEnd {
		m[x.name] = x.value
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"machine": mc, "correct": res.correct, "attempted": res.attempted, "failed": res.failed, "end_to_end": m,
	}, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: save result:", err)
	}
}

type overheadRow struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// traceOverhead compares the traced run's end-to-end metrics with the
// untraced run of the same seed saved at path, if there is one.
func traceOverhead(path string, traced []metric) []overheadRow {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var saved struct {
		EndToEnd map[string]float64 `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil
	}
	var out []overheadRow
	for _, m := range traced {
		base, ok := saved.EndToEnd[m.name]
		if !ok || base == 0 {
			continue
		}
		out = append(out, overheadRow{m.name, fmt.Sprintf("traced %.4g vs untraced %.4g %s (%+.1f%%)", m.value, base, m.unit, (m.value/base-1)*100)})
	}
	return out
}
