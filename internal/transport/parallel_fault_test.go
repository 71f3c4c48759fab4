package transport_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// TestParallelWorkersConvergeUnderFaults runs the full fault battery
// against stores ticking with a 4-wide shard-work pool (a store's pool
// is as wide as GOMAXPROCS when it starts): 20% frame loss
// and reordering on every link, plus a partition that isolates one
// store while updates land on both sides, healed mid-run. Exact
// convergence afterwards shows the pool's concurrency changes nothing
// the protocol can observe; under -race (CI) it also sweeps the
// worker/coordinator handoffs for data races.
func TestParallelWorkersConvergeUnderFaults(t *testing.T) {
	const keys = 120
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var partitioned atomic.Bool
	partitioned.Store(true)
	side := map[string]int{"s-00": 0, "s-01": 1, "s-02": 1}
	faultFor := func(i int, id string) *transport.Fault {
		f := transport.NewFault(int64(100 + i))
		f.SetDropRate(0.2)
		f.SetReorder(0.3, 3*time.Millisecond)
		f.SetSever(func(peer string) bool {
			return partitioned.Load() && side[id] != side[peer]
		})
		return f
	}
	stores := startFaultyCluster(t, 3, transport.StoreConfig{
		Shards:      16,
		Factory:     protocol.NewDeltaAcked(true, true),
		ObjType:     func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:   15 * time.Millisecond,
		DigestEvery: 2,
	}, faultFor)
	for k := 0; k < keys; k++ {
		stores[k%3].Update(workload.Inc(fmt.Sprintf("key-%03d", k), 1))
		if k%12 == 11 {
			time.Sleep(5 * time.Millisecond) // let ticks run mid-load
		}
	}
	partitioned.Store(false)
	if err := transport.WaitConverged(stores, keys, 90*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		for _, st := range stores {
			got := st.Get(key)
			if got == nil {
				t.Fatalf("%s missing on %s", key, st.ID())
			}
			if v := got.(*crdt.GCounter).Value(); v != 1 {
				t.Errorf("%s on %s = %d, want 1", key, st.ID(), v)
			}
		}
	}
	for _, st := range stores {
		stats := st.Stats()
		if stats.SyncWorkers != 4 {
			t.Fatalf("%s: SyncWorkers = %d, want 4", st.ID(), stats.SyncWorkers)
		}
		claimed := uint64(0)
		for _, c := range stats.SyncWorkerShards {
			claimed += c
		}
		if claimed == 0 {
			t.Errorf("%s: pool never claimed a shard", st.ID())
		}
	}
}
