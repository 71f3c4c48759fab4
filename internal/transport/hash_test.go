package transport

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// referenceHashes recomputes a shard's digest and leaf vector from
// scratch, re-encoding every key's state: the full recompute the
// incremental per-key hashes must always agree with. Caller holds sh.mu.
func referenceHashes(sh *shard) (digest uint64, leaves []uint64) {
	leaves = make([]uint64, protocol.TreeLeaves)
	for _, k := range sh.engine.Keys() {
		h := leafKeyHash(k, codec.Encode(sh.engine.ObjectState(k)))
		digest ^= h
		leaves[treeLeafIdx(k)] ^= h
	}
	return digest, leaves
}

// TestIncrementalHashesMatchRecompute drives a store through random
// local updates, inbound deliveries, snapshot passes and restores, and
// Merkle drill-down reads, and after every step checks each shard's
// digest, its leaf vector (once a drill-down has built one) and the node
// hashes a drill-down serves against a from-scratch recompute.
func TestIncrementalHashesMatchRecompute(t *testing.T) {
	dir := t.TempDir()
	s := startSnapStore(t, 4, dir)
	rng := rand.New(rand.NewSource(7))
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(300)) }
	restores := 0

	check := func(step int, op string) {
		t.Helper()
		for i, sh := range s.shards {
			lockFree := sh.contentDigest()
			sh.mu.Lock()
			got := sh.refreshLocked()
			want, wantLeaves := referenceHashes(sh)
			leaf := sh.leaf
			leafDiff := -1
			for j := range leaf {
				if leaf[j] != wantLeaves[j] {
					leafDiff = j
					break
				}
			}
			sh.mu.Unlock()
			if got != want || lockFree != want {
				t.Fatalf("step %d (%s): shard %d digest %#x (lock-free %#x), recompute %#x",
					step, op, i, got, lockFree, want)
			}
			if leafDiff >= 0 {
				t.Fatalf("step %d (%s): shard %d leaf %d %#x, recompute %#x",
					step, op, i, leafDiff, leaf[leafDiff], wantLeaves[leafDiff])
			}
		}
	}

	for step := 0; step < 600; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r < 4:
			op = "update"
			s.Update(workload.Add(key(), fmt.Sprintf("e%d", rng.Intn(5))))
		case r < 7:
			op = "deliver"
			byShard := map[uint32][]string{}
			for n := 1 + rng.Intn(6); n > 0; n-- {
				k := key()
				sh := fnv32a(k) & s.mask
				byShard[sh] = append(byShard[sh], k)
			}
			var items []protocol.ShardItem
			for sh, keys := range byShard {
				oms := make([]protocol.ObjectMsg, 0, len(keys))
				for _, k := range keys {
					oms = append(oms, protocol.ObjectMsg{Key: k, Inner: gsetDelta(rng.Intn(50), 1+rng.Intn(3))})
				}
				items = append(items, protocol.ShardItem{Shard: sh, Msg: protocol.BatchOf(oms)})
			}
			sort.Slice(items, func(i, j int) bool { return items[i].Shard < items[j].Shard })
			if err := s.deliver("peer", encodeFrame(t, protocol.NewShardedMsg(items))); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		case r < 8:
			op = "snapshot"
			if err := s.SnapshotNow(); err != nil {
				t.Fatalf("SnapshotNow: %v", err)
			}
		case r < 9:
			op = "restore"
			n := 1 + rng.Intn(8)
			w := codec.NewSnapshotWriter(0, len(s.shards), n)
			for ; n > 0; n-- {
				w.Add(key(), crdt.NewGSet(fmt.Sprintf("r%d", rng.Intn(20))))
			}
			restores++
			path := filepath.Join(dir, fmt.Sprintf("restore-%04d.snap", restores))
			if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			s.restoreSnapshots()
		default:
			op = "drill"
			idx := rng.Intn(len(s.shards))
			sh := s.shards[idx]
			level := 1 + rng.Intn(protocol.TreeDepth)
			nodes := []uint32{uint32(rng.Intn(protocol.TreeNodesAt(level)))}
			got := s.treeNodeHashes(sh, level, nodes, nil)
			sh.mu.Lock()
			_, leaves := referenceHashes(sh)
			sh.mu.Unlock()
			span := protocol.TreeLeafSpan(level)
			want := uint64(0)
			for _, l := range leaves[nodes[0]*span : (nodes[0]+1)*span] {
				want ^= l
			}
			if got[0] != want {
				t.Fatalf("step %d: shard %d level %d node %d hash %#x, recompute %#x",
					step, idx, level, nodes[0], got[0], want)
			}
		}
		check(step, op)
	}
	built := 0
	for _, sh := range s.shards {
		if sh.leaf != nil {
			built++
		}
	}
	if built == 0 {
		t.Fatal("no drill-down built a leaf vector; the patch path went untested")
	}
}

// TestMarkKnownKeyNoAllocs pins the write-path cost of the hash cache:
// marking a key the shard already knows — from a local update's string
// or from a delivered frame's byte view — allocates nothing. Each run
// unlinks the marks again (the refresh's bookkeeping without its state
// encoding, which is the codec's cost, not marking's) so every run takes
// the linking path.
func TestMarkKnownKeyNoAllocs(t *testing.T) {
	s := startSoloStore(t, 1)
	s.Update(workload.Add("a", "v"))
	s.Update(workload.Add("b", "v"))
	sh := s.shards[0]
	b := []byte("b")
	allocs := testing.AllocsPerRun(100, func() {
		sh.mu.Lock()
		sh.markKey("a")
		sh.markKeyBytes(b)
		listed := 0
		for e := sh.changed; e != changedEnd; listed++ {
			next := e.next
			e.next = nil
			e = next
		}
		sh.changed = changedEnd
		sh.mu.Unlock()
		if listed != 2 {
			t.Fatalf("%d keys listed, want 2", listed)
		}
	})
	if allocs != 0 {
		t.Fatalf("marking known keys allocates %.1f per run, want 0", allocs)
	}
}
