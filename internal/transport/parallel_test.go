package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// newTickStore builds a store with the given pool width and two
// unreachable peers, so engines have neighbors to emit to but nothing
// ever arrives from the wire; both background loops are pushed out to
// an hour so the tests drive every tick explicitly.
func newTickStore(t testing.TB, workers int, factory protocol.Factory) *Store {
	t.Helper()
	s, err := startStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"p1": "127.0.0.1:1", "p2": "127.0.0.1:1"},
		Nodes:      []string{"n0", "p1", "p2"},
		Shards:     64,
		Factory:    factory,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	}, workers)
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newPoolStore is a peerless store for pool-stage tests: no write
// pipelines exist, so nothing allocates in the background while a test
// measures.
func newPoolStore(t testing.TB, workers, shards int, snapDir string) *Store {
	t.Helper()
	cfg := StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Shards:     shards,
		Factory:    protocol.NewDeltaBPRR(),
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	}
	if snapDir != "" {
		cfg.SnapshotDir = snapDir
		cfg.SnapshotEvery = time.Hour
	}
	s, err := startStore(cfg, workers)
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestParallelTickFramesByteIdentical is the tick's determinism pin:
// workers capture emissions per shard (pre-encoding each item) and the
// merge replays them in ascending shard order, so the packed frame bytes
// to every destination must be the same at pool widths 1 and 4 — and
// equal to what the packer produces encoding the same items itself,
// the reference independent of the workers' encoding. Round 2 is a
// pure-retransmission round: no new updates, and the stores' clocks
// moved past every retransmission timeout, so the acked streams re-send
// everything unacked.
func TestParallelTickFramesByteIdentical(t *testing.T) {
	narrow := newTickStore(t, 1, protocol.NewDeltaAcked(true, true))
	wide := newTickStore(t, 4, protocol.NewDeltaAcked(true, true))
	limit := maxMsgFor(maxFrameBytes, "n0")
	pack := func(items []protocol.ShardItem, encs [][]byte) [][]byte {
		res, err := packFrames(items, encs, nil, limit)
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		var frames [][]byte
		for _, f := range res.frames {
			frames = append(frames, f.data)
		}
		return frames
	}
	for round := 0; round < 3; round++ {
		if round < 2 {
			for k := 0; k < 300; k++ {
				op := workload.Add(fmt.Sprintf("key-%04d", k), fmt.Sprintf("e%d", round))
				narrow.Update(op)
				wide.Update(op)
			}
		} else { // round 2 ticks with retransmissions only
			later := time.Now().Add(3 * time.Hour)
			narrow.clock = func() time.Time { return later }
			wide.clock = narrow.clock
		}
		b1, b4 := newOutBatch(), newOutBatch()
		ts1, ts4 := narrow.collectTick(b1, nil), wide.collectTick(b4, nil)
		if ts1 == nil || ts4 == nil || len(b1.order) == 0 {
			t.Fatalf("round %d produced no emissions", round)
		}
		if !slices.Equal(b1.order, b4.order) {
			t.Fatalf("round %d: destination order %v (width 1) vs %v (width 4)", round, b1.order, b4.order)
		}
		for _, to := range b1.order {
			ref := pack(b1.perDest[to], nil)
			for width, b := range map[int]*outBatch{1: b1, 4: b4} {
				if slices.ContainsFunc(b.perEnc[to], func(e []byte) bool { return e == nil }) {
					t.Fatalf("round %d to %s: width-%d tick left an item for the packer to encode", round, to, width)
				}
				if got := pack(b.perDest[to], b.perEnc[to]); !slices.EqualFunc(got, ref, bytes.Equal) {
					t.Fatalf("round %d to %s: width-%d tick frames differ from the packer's own encoding of the same items",
						round, to, width)
				}
			}
		}
		narrow.releaseTickScratch(ts1)
		wide.releaseTickScratch(ts4)
	}
	if narrow.Digest() != wide.Digest() {
		t.Fatal("digests differ between widths 1 and 4")
	}
}

// TestParallelStagesMatchSerial loads identical content into a serial
// and a 4-worker store and checks every read-side result agrees: key
// listing, memory accounting, the root digest, the Merkle leaf vector of
// one large shard, and the snapshot files on disk.
func TestParallelStagesMatchSerial(t *testing.T) {
	dirS, dirP := t.TempDir(), t.TempDir()
	serial := newPoolStore(t, 1, 1, dirS)
	parallel := newPoolStore(t, 4, 1, dirP)
	const keys = 5000
	for k := 0; k < keys; k++ {
		op := workload.Add(fmt.Sprintf("key-%05d", k), "e")
		serial.Update(op)
		parallel.Update(op)
	}
	if got, want := parallel.NumKeys(), serial.NumKeys(); got != want {
		t.Fatalf("NumKeys: %d (parallel) vs %d (serial)", got, want)
	}
	if !slices.Equal(parallel.Keys(), serial.Keys()) {
		t.Fatal("Keys() differs between serial and parallel stores")
	}
	if got, want := parallel.Memory(), serial.Memory(); got != want {
		t.Fatalf("Memory: %+v (parallel) vs %+v (serial)", got, want)
	}
	if got, want := parallel.Digest(), serial.Digest(); got != want {
		t.Fatalf("Digest: %#x (parallel) vs %#x (serial)", got, want)
	}
	leafOf := func(s *Store) []uint64 {
		sh := s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return slices.Clone(sh.leavesLocked())
	}
	if !slices.Equal(leafOf(parallel), leafOf(serial)) {
		t.Fatal("Merkle leaf vectors differ between serial and parallel stores")
	}
	if err := serial.SnapshotNow(); err != nil {
		t.Fatalf("serial SnapshotNow: %v", err)
	}
	if err := parallel.SnapshotNow(); err != nil {
		t.Fatalf("parallel SnapshotNow: %v", err)
	}
	ds, err := os.ReadFile(filepath.Join(dirS, "shard-0000.snap"))
	if err != nil {
		t.Fatalf("read serial snapshot: %v", err)
	}
	dp, err := os.ReadFile(filepath.Join(dirP, "shard-0000.snap"))
	if err != nil {
		t.Fatalf("read parallel snapshot: %v", err)
	}
	if !bytes.Equal(ds, dp) {
		t.Fatal("snapshot bytes differ between serial and parallel encode")
	}
}

// TestRunShardStageCoversAllShards pins the claim loop's contract:
// every shard index is visited exactly once per stage, and the claims
// are accounted against the workers that made them.
func TestRunShardStageCoversAllShards(t *testing.T) {
	s := newPoolStore(t, 4, 64, "")
	before := uint64(0)
	for _, c := range s.Stats().SyncWorkerShards {
		before += c
	}
	var mu sync.Mutex
	counts := make([]int, len(s.shards))
	s.runShardStage(func(_, i int) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("shard %d visited %d times, want 1", i, c)
		}
	}
	st := s.Stats()
	if st.SyncWorkers != 4 {
		t.Fatalf("Stats().SyncWorkers = %d, want 4", st.SyncWorkers)
	}
	after := uint64(0)
	for _, c := range st.SyncWorkerShards {
		after += c
	}
	if after-before != uint64(len(s.shards)) {
		t.Fatalf("claim accounting: %d shards recorded, want %d", after-before, len(s.shards))
	}
}

// TestCleanDigestPathNoAllocs pins the idle per-object store's digest
// tick at zero allocations: with no shard to visit and every cached
// digest valid, collectTick is a lock-free fill of a free-listed vector.
func TestCleanDigestPathNoAllocs(t *testing.T) {
	s := newPoolStore(t, 4, 64, "")
	for k := 0; k < 512; k++ {
		s.Update(workload.Add(fmt.Sprintf("key-%04d", k), "e"))
	}
	b := newOutBatch()
	tick := func() {
		vec := s.getDigestVec()
		if ts := s.collectTick(b, vec); ts != nil {
			s.releaseTickScratch(ts)
		}
		s.putDigestVec(vec)
	}
	tick() // visit the written shards, compute caches, seed the free list
	allocs := testing.AllocsPerRun(100, tick)
	if allocs != 0 {
		t.Fatalf("clean-store digest path allocates %.1f per run, want 0", allocs)
	}
}
