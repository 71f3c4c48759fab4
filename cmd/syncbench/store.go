package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"crdtsync"
	"crdtsync/internal/transport"
)

// storeBenchConfig parameterizes the sharded multi-object store benchmark
// (the "store" experiment): a full-mesh TCP cluster on loopback where each
// replica owns a disjoint slice of a large keyspace and anti-entropy has
// to spread every object to every replica through batched frames. The
// cluster is driven through the public crdtsync API; only the fault
// injector reaches into internal/transport (it is a measurement harness,
// not a user-facing knob).
type storeBenchConfig struct {
	Keys      int
	Nodes     int
	Shards    int
	SyncEvery time.Duration
	// Engine selects the inner per-object protocol: "acked" (delta BP+RR
	// with acknowledgements — retransmits until acked, so dropped frames
	// are repaired; the production-safe default) or "delta" (plain BP+RR,
	// the paper's optimal engine, which assumes no frame is ever lost).
	Engine string
	// DigestEvery ships per-shard digest vectors every N ticks so peers
	// pull diverged shards in full; 0 disables digest anti-entropy.
	DigestEvery int
	// FaultDrop, when nonzero, wires a shared transport.Fault injector
	// into every store's dialer that drops this fraction of frames on
	// every link, so the benchmark measures the bytes+ticks cost of
	// converging under loss (acked retransmissions and digest repairs).
	FaultDrop float64
	// PeerQueueLen sets each replica's per-peer outbound queue length in
	// frames (0 = transport default).
	PeerQueueLen int
	// PeerQueueBytes sets each replica's per-peer outbound queue byte
	// budget (0 = transport default).
	PeerQueueBytes int
	// Scan, after convergence, measures the read layer: clone-everything
	// Get baseline vs zero-clone Query vs sorted Scan over the full
	// keyspace, reporting throughput and allocations per visited key.
	Scan bool
	// Seed seeds the fault injector's frame-fate sequence.
	Seed int64
}

// runStoreBench drives the benchmark and prints a throughput /
// bytes-on-wire report.
func runStoreBench(cfg storeBenchConfig) {
	if cfg.Nodes < 2 {
		fmt.Fprintln(os.Stderr, "store benchmark needs at least 2 nodes")
		os.Exit(2)
	}
	engine, err := crdtsync.ParseEngine(cfg.Engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engineDesc := map[crdtsync.Engine]string{
		crdtsync.EngineAcked: "delta-based BP+RR with acknowledgements (loss-tolerant)",
		crdtsync.EngineDelta: "delta-based BP+RR (assumes reliable channels)",
	}[engine]
	opts := []crdtsync.Option{
		crdtsync.WithID("store"),
		crdtsync.WithShards(cfg.Shards),
		crdtsync.WithEngine(engine),
		crdtsync.WithSyncEvery(cfg.SyncEvery),
		crdtsync.WithDigestEvery(cfg.DigestEvery),
		crdtsync.WithQueueBudget(cfg.PeerQueueLen, cfg.PeerQueueBytes),
	}
	if cfg.FaultDrop > 0 {
		fault := transport.NewFault(cfg.Seed)
		fault.SetDropRate(cfg.FaultDrop)
		opts = append(opts, crdtsync.WithDial(fault.Dialer(nil)))
	}
	stores, err := crdtsync.Cluster(cfg.Nodes, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	fmt.Printf("store: %d nodes (full mesh), %d shards/node, %d keys, sync every %s\n",
		cfg.Nodes, stores[0].NumShards(), cfg.Keys, cfg.SyncEvery)
	fmt.Printf("engine: %s\n", engineDesc)
	if cfg.DigestEvery > 0 {
		fmt.Printf("anti-entropy: per-shard digests every %d ticks, piggybacked on data frames\n", cfg.DigestEvery)
	}
	if cfg.FaultDrop > 0 {
		fmt.Printf("fault injection: dropping %.0f%% of frames on every link\n", cfg.FaultDrop*100)
	}

	// Phase 1: load. Each store increments a disjoint slice of the
	// keyspace from several goroutines (updates on different shards never
	// contend).
	loadStart := time.Now()
	var wg sync.WaitGroup
	for i, st := range stores {
		wg.Add(1)
		go func(st *crdtsync.Store, i int) {
			defer wg.Done()
			for k := i; k < cfg.Keys; k += cfg.Nodes {
				st.Counter(keyName(k)).Inc(1)
			}
		}(st, i)
	}
	wg.Wait()
	loadDur := time.Since(loadStart)
	fmt.Printf("load: %d updates in %s (%.0f updates/s)\n",
		cfg.Keys, loadDur.Round(time.Millisecond), float64(cfg.Keys)/loadDur.Seconds())

	// Phase 2: anti-entropy until every replica holds every key in the
	// same state.
	syncStart := time.Now()
	if err := crdtsync.WaitConverged(stores, cfg.Keys, 5*time.Minute, nil); err != nil {
		log.Fatal(err)
	}
	syncDur := time.Since(syncStart)

	var total crdtsync.Stats
	var ticks uint64
	for _, st := range stores {
		total.Add(st.Stats())
		ticks += st.Ticks()
	}
	fmt.Printf("converged: %d keys on every replica in %s (digest %x, %.0f sync ticks/node)\n",
		cfg.Keys, syncDur.Round(time.Millisecond), stores[0].Digest(),
		float64(ticks)/float64(cfg.Nodes))
	fmt.Printf("wire: %d frames, %s on the wire (%s payload, %s sync metadata), %d elements shipped\n",
		total.Frames, fmtBytes(total.WireBytes),
		fmtBytes(total.Sent.PayloadBytes), fmtBytes(total.Sent.MetadataBytes),
		total.Sent.Elements)
	if cfg.DigestEvery > 0 || total.SplitFrames > 0 || total.OversizedDropped > 0 {
		fmt.Printf("anti-entropy: %d standalone digest frames, %d piggybacked digests, %d shards requested, %d shards served in full; %d split frames, %d oversized drops\n",
			total.DigestFrames, total.PiggybackedDigests, total.WantShards, total.RepairShards,
			total.SplitFrames, total.OversizedDropped)
	}
	if total.TreeRounds > 0 || total.DedupedWants > 0 || total.HeldRepairs > 0 {
		fmt.Printf("repair: %d drill-down rounds (%d found no differing range), %d key ranges served, %s repair payload, %d wants deduped against in-flight repairs, %d held while δs were in flight\n",
			total.TreeRounds, total.EmptyDrills, total.RepairRanges, fmtBytes(total.RepairBytes), total.DedupedWants, total.HeldRepairs)
	}
	if total.DigestShardMismatch > 0 {
		// Nonzero only when a peer advertises digests for a different shard
		// count than ours — a misconfigured cluster, worth shouting about.
		fmt.Printf("digest skew: %d advertisements discarded (peer shard count differs from ours)\n",
			total.DigestShardMismatch)
	}
	if total.DroppedItems > 0 {
		// Nonzero only when a peer's shard count disagrees with ours —
		// a misconfigured cluster, worth shouting about.
		fmt.Printf("shard skew: %d inbound items dropped (sender shard index out of local range)\n",
			total.DroppedItems)
	}
	if total.Frames > 0 {
		fmt.Printf("batching: %.0f keys/frame average, %.1f frames/node\n",
			float64(total.Sent.Elements)/float64(total.Frames),
			float64(total.Frames)/float64(cfg.Nodes))
	}
	var enq, enqBytes, dropped, droppedBytes, coalesced, reconnects int
	var overflow, dial, write, closing int
	for _, ps := range total.Peers {
		enq += ps.Enqueued
		enqBytes += ps.EnqueuedBytes
		dropped += ps.Dropped
		droppedBytes += ps.DroppedBytes
		overflow += ps.DroppedOverflow
		dial += ps.DroppedDial
		write += ps.DroppedWrite
		closing += ps.DroppedClosing
		coalesced += ps.Coalesced
		reconnects += ps.Reconnects
	}
	fmt.Printf("pipeline: %d frames enqueued (%s), %d dropped (%s; %d queue overflow, %d failed dials, %d failed writes, %d at close), %d ack frames, %d coalesced on drain, %d reconnects\n",
		enq, fmtBytes(enqBytes), dropped, fmtBytes(droppedBytes), overflow, dial, write, closing,
		total.AckFrames, coalesced, reconnects)
	if total.SyncWorkers > 1 {
		busy := make([]time.Duration, len(total.SyncWorkerBusyNs))
		for i, ns := range total.SyncWorkerBusyNs {
			busy[i] = time.Duration(ns).Round(time.Millisecond)
		}
		fmt.Printf("pool: %d sync workers/node; cluster-wide shard claims per worker %v, busy %v\n",
			total.SyncWorkers, total.SyncWorkerShards, busy)
	}
	var mem crdtsync.Memory
	for _, st := range stores {
		m := st.Memory()
		mem.CRDTBytes += m.CRDTBytes
		mem.BufferBytes += m.BufferBytes
		mem.MetadataBytes += m.MetadataBytes
	}
	fmt.Printf("memory: %s CRDT state, %s δ-buffers, %s sync metadata across the cluster\n",
		fmtBytes(mem.CRDTBytes), fmtBytes(mem.BufferBytes), fmtBytes(mem.MetadataBytes))

	if cfg.Scan {
		// Let residual retransmission traffic drain so shard locks are
		// quiet and the read measurement isn't paying for deliveries.
		waitQuiescent(stores, cfg.SyncEvery)
		runReadBench(stores[0], cfg.Keys)
	}
}

// waitQuiescent waits until every δ-buffer has drained (acked engines
// keep retransmitting until the last ack lands), so a read benchmark
// measures reads, not leftover write traffic.
func waitQuiescent(stores []*crdtsync.Store, syncEvery time.Duration) {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		pending := 0
		for _, st := range stores {
			pending += st.Memory().BufferBytes
		}
		if pending == 0 {
			return
		}
		time.Sleep(syncEvery)
	}
}

// runReadBench measures the three read strengths over one converged
// replica's full keyspace: the clone-everything Get baseline, the
// zero-clone per-shard Query, and the globally sorted Scan.
func runReadBench(st *crdtsync.Store, keys int) {
	fmt.Printf("\nread layer (%d keys, 1 replica):\n", keys)
	keyList := st.Keys() // shared by the baseline; excluded from its measurement

	measure := func(name string, visit func() int) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		visited := visit()
		dur := time.Since(start)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(max(visited, 1))
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(visited, 1))
		fmt.Printf("  %-24s %9d keys in %10s  (%7.2f Mkeys/s, %5.2f allocs/key, %7.1f B/key)\n",
			name, visited, dur.Round(time.Microsecond),
			float64(visited)/dur.Seconds()/1e6, allocs, bytes)
	}

	measure("get (clone everything)", func() int {
		n := 0
		for _, k := range keyList {
			if st.Get(k) != nil {
				n++
			}
		}
		return n
	})
	measure("query (zero-clone)", func() int {
		n := 0
		for shard := 0; shard < st.NumShards(); shard++ {
			st.Query(shard, func(string, crdtsync.State) bool { n++; return true })
		}
		return n
	})
	measure("scan (sorted, prefix)", func() int {
		n := 0
		st.Scan(crdtsync.CounterPrefix, func(string, crdtsync.State) bool { n++; return true })
		return n
	})
}

func keyName(k int) string { return fmt.Sprintf("obj:%07d", k) }

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
