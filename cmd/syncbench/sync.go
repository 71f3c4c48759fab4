package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"crdtsync"
)

// The sync experiment measures the multi-core sync engine over the
// public API: one store with an all-dirty keyspace ticks against a TCP
// sink at each GOMAXPROCS setting — a store's shard-work pool is
// GOMAXPROCS wide — so a row's tick time covers the whole outbound path
// (engine sync, item encoding, digest refresh, frame packing, enqueue)
// and the sweep's ratios are the pool's wall-clock scaling on this
// host. The one-worker row is the speedup baseline.

// syncBenchConfig parameterizes the pool-scaling benchmark.
type syncBenchConfig struct {
	Keys   int    // distinct keys, touched in full before every tick
	Shards int    // shards (rounded to a power of two)
	Ticks  int    // timed all-dirty ticks per pool width
	Out    string // JSON artifact path ("" = stdout only)
}

// syncRow is one pool width's measurements.
type syncRow struct {
	Workers      int      `json:"workers"`
	TickMs       float64  `json:"tick_ms"`       // mean all-dirty tick
	TicksPerSec  float64  `json:"ticks_per_sec"` // 1000 / tick_ms
	SpeedupX     float64  `json:"speedup_x"`     // serial tick_ms / this row's
	SnapshotMs   float64  `json:"snapshot_ms"`   // full snapshot encode+write pass
	WorkerShards []uint64 `json:"worker_shards"` // per-worker shard claims (skew)
}

// syncReport is the BENCH_sync.json schema. GoMaxProcs (the process's
// setting outside the sweep) and NumCPU record how much hardware
// parallelism the rows had available — on a single-core host every
// width collapses to serial and the speedups sit at ~1.
type syncReport struct {
	Keys       int       `json:"keys"`
	Shards     int       `json:"shards"`
	Engine     string    `json:"engine"`
	Ticks      int       `json:"ticks"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Rows       []syncRow `json:"rows"`
}

func runSyncBench(cfg syncBenchConfig) {
	if cfg.Keys <= 0 {
		cfg.Keys = 50000
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 20
	}
	report := syncReport{
		Keys:       cfg.Keys,
		Shards:     cfg.Shards,
		Engine:     "delta",
		Ticks:      cfg.Ticks,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	fmt.Printf("sync: %d keys over %d shards, %d all-dirty ticks per width, GOMAXPROCS=%d\n",
		cfg.Keys, cfg.Shards, cfg.Ticks, report.GoMaxProcs)
	fmt.Printf("%8s %12s %14s %10s %14s\n",
		"workers", "tick", "ticks/sec", "speedup", "snapshot")
	for _, w := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(w)
		row := syncPoint(cfg)
		runtime.GOMAXPROCS(prev)
		if len(report.Rows) == 0 {
			row.SpeedupX = 1
		} else {
			row.SpeedupX = report.Rows[0].TickMs / row.TickMs
		}
		report.Rows = append(report.Rows, row)
		fmt.Printf("%8d %12.2fms %14.1f %9.2fx %12.2fms\n",
			row.Workers, row.TickMs, row.TicksPerSec, row.SpeedupX, row.SnapshotMs)
	}
	if cfg.Out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatalf("sync: marshal: %v", err)
		}
		if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("sync: write %s: %v", cfg.Out, err)
		}
		fmt.Printf("sync: wrote %s\n", cfg.Out)
	}
}

// syncPoint measures one fresh store, its pool as wide as GOMAXPROCS.
func syncPoint(cfg syncBenchConfig) syncRow {
	sinkAddr, closeSink := discardSink()
	defer closeSink()
	dir, err := os.MkdirTemp("", "syncbench-sync-*")
	if err != nil {
		log.Fatalf("sync: tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	st, err := crdtsync.Open(
		crdtsync.WithID("n0"),
		crdtsync.WithListenAddr("127.0.0.1:0"),
		crdtsync.WithPeers(map[string]string{"sink": sinkAddr}),
		crdtsync.WithNodes([]string{"n0", "sink"}),
		crdtsync.WithShards(cfg.Shards),
		// The plain delta engine clears its δ-buffer after each send, so
		// every timed tick ships exactly one round of fresh deltas.
		crdtsync.WithEngine(crdtsync.EngineDelta),
		crdtsync.WithSyncEvery(time.Hour), // ticks are driven explicitly
		crdtsync.WithDigestEvery(1),       // every tick recomputes the digest vector
		crdtsync.WithSnapshotDir(dir),
		crdtsync.WithSnapshotEvery(time.Hour),
	)
	if err != nil {
		log.Fatalf("sync: open: %v", err)
	}
	defer st.Close()
	for k := 0; k < cfg.Keys; k++ {
		st.Set(keyName(k)).Add("v")
	}
	st.SyncNow() // drain the initial state; timed ticks see steady-state deltas
	var tickTotal time.Duration
	for i := 0; i < cfg.Ticks; i++ {
		elem := fmt.Sprintf("t%d", i)
		for k := 0; k < cfg.Keys; k++ {
			st.Set(keyName(k)).Add(elem)
		}
		start := time.Now()
		st.SyncNow()
		tickTotal += time.Since(start)
	}
	snapStart := time.Now()
	if err := st.SnapshotNow(); err != nil {
		log.Fatalf("sync: snapshot: %v", err)
	}
	snapMs := float64(time.Since(snapStart).Microseconds()) / 1000
	tickMs := float64(tickTotal.Microseconds()) / 1000 / float64(cfg.Ticks)
	stats := st.Stats()
	return syncRow{
		Workers:      stats.SyncWorkers,
		TickMs:       tickMs,
		TicksPerSec:  1000 / tickMs,
		SnapshotMs:   snapMs,
		WorkerShards: stats.SyncWorkerShards,
	}
}

// discardSink is a TCP listener that accepts and discards everything —
// a real peer socket for the write pipelines without a second store's
// CPU in the measurement.
func discardSink() (addr string, closeFn func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("sync: sink listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}
