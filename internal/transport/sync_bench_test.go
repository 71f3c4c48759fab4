package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// benchTickStore builds the tentpole's pinned workload: a 64-shard
// store, every shard dirty each iteration, with one unreachable peer so
// engines emit into a 1-frame write queue (constant-cost eviction, no
// I/O on the timed path).
func benchTickStore(b *testing.B, workers int) (*Store, []string) {
	b.Helper()
	s, err := startStore(StoreConfig{
		ID:           "n0",
		ListenAddr:   "127.0.0.1:0",
		Peers:        map[string]string{"sink": "127.0.0.1:1"},
		Nodes:        []string{"n0", "sink"},
		Shards:       64,
		Factory:      protocol.NewDeltaBPRR(),
		ObjType:      func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:    time.Hour,
		PeerQueueLen: 1,
	}, workers)
	if err != nil {
		b.Fatalf("StartStore: %v", err)
	}
	b.Cleanup(func() { s.Close() })
	keys := make([]string, 64*32)
	for k := range keys {
		keys[k] = fmt.Sprintf("key-%05d", k)
	}
	return s, keys
}

// BenchmarkSyncTick measures one all-dirty 64-shard sync tick — the
// dirty scan, engine.Sync per shard, item encoding, frame packing and
// enqueue — on one worker ("serial") versus the GOMAXPROCS-wide pool
// every store starts with ("pool"). Run with -cpu 1,2,4,8 for the
// scaling curve; at -cpu 1 the two sub-benchmarks coincide (the pool
// runs inline on the caller).
func BenchmarkSyncTick(b *testing.B) {
	run := func(workers func() int) func(*testing.B) {
		return func(b *testing.B) {
			s, keys := benchTickStore(b, workers())
			for _, k := range keys {
				s.Update(workload.Add(k, "e0"))
			}
			s.SyncNow() // drain the initial state; steady-state deltas follow
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				elem := fmt.Sprintf("e%d", i+1)
				for _, k := range keys {
					s.Update(workload.Add(k, elem))
				}
				b.StartTimer()
				s.SyncNow()
			}
		}
	}
	b.Run("serial", run(func() int { return 1 }))
	b.Run("pool", run(func() int { return runtime.GOMAXPROCS(0) }))
}

// BenchmarkDigestVector measures a digest-vector refresh on a
// 20,000-key, 64-shard store after touching one key ("one") and after
// touching every key ("all"). A refresh rehashes only the changed keys,
// so "one" stays flat as the keyspace grows while "all" scales with it.
// Counters keep every state the same size however often it is touched.
func BenchmarkDigestVector(b *testing.B) {
	const keys = 20000
	run := func(touched int) func(*testing.B) {
		return func(b *testing.B) {
			s, err := StartStore(StoreConfig{
				ID:         "n0",
				ListenAddr: "127.0.0.1:0",
				Shards:     64,
				Factory:    protocol.NewDeltaBPRR(),
				ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
				SyncEvery:  time.Hour,
			})
			if err != nil {
				b.Fatalf("StartStore: %v", err)
			}
			b.Cleanup(func() { s.Close() })
			ops := make([]workload.Op, keys)
			for k := range ops {
				ops[k] = workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%05d", k), N: 1}
				s.Update(ops[k])
			}
			s.putDigestVec(s.shardDigests()) // hash every key, seed the free list
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < touched; k++ {
					s.Update(ops[(i+k)%keys])
				}
				b.StartTimer()
				s.putDigestVec(s.shardDigests())
			}
		}
	}
	b.Run("one", run(1))
	b.Run("all", run(keys))
}
