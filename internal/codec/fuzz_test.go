package codec_test

import (
	"bytes"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// FuzzDecodeState checks that arbitrary input never panics the state
// decoder and that accepted inputs re-encode losslessly.
func FuzzDecodeState(f *testing.F) {
	f.Add(codec.Encode(lattice.NewMaxInt(7)))
	f.Add(codec.Encode(crdt.NewGSet("a", "b")))
	c := crdt.NewGCounter()
	c.Inc("n00", 3)
	f.Add(codec.Encode(c))
	m := lattice.NewMap()
	m.Set("k", lattice.NewSet("x"))
	f.Add(codec.Encode(m))
	aw := crdt.NewAWSet()
	aw.Add("A", "e")
	aw.Remove("e")
	f.Add(codec.Encode(aw))
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := codec.Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must re-encode to an equal state.
		re := codec.Encode(s)
		got, _, err := codec.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !got.Equal(s) {
			t.Fatalf("re-encode changed the state: %v vs %v", got, s)
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
	})
}

// FuzzDecodeMsg checks that arbitrary input never panics the message
// decoder and that accepted inputs reach an encoding fixed point: the
// codec is canonical, so decode∘encode must be the identity on the bytes
// an accepted message re-encodes to.
func FuzzDecodeMsg(f *testing.F) {
	cost := metrics.Transmission{Messages: 1}
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	seed(protocol.NewDeltaMsg(crdt.NewGSet("x"), cost))
	seed(&protocol.StreamAckMsg{Seq: 2})
	// The store's wire frames: batched sharded data and digests.
	batch := protocol.NewBatchMsg([]protocol.ObjectMsg{
		{Key: "obj:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"), cost)},
		{Key: "obj:2", Inner: protocol.NewDeltaMsg(crdt.NewGSet("b"), cost)},
	}, cost)
	seed(batch)
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 7, Msg: &protocol.StreamAckMsg{Seq: 9}},
	}))
	// The digest-carrying sharded variant (piggybacked anti-entropy).
	seed(protocol.NewShardedDigestMsg([]protocol.ShardItem{
		{Shard: 3, Msg: protocol.NewDeltaMsg(crdt.NewGSet("p"), cost)},
	}, []uint64{0, ^uint64(0), 0xabcdef}))
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0), 0xdeadbeef}, nil,
		protocol.DigestCost([]uint64{0, 1, 2}, nil)))
	seed(protocol.NewDigestMsg(nil, []uint32{0, 5, 4294967295},
		protocol.DigestCost(nil, []uint32{0, 5, 6})))
	// The Merkle drill-down rounds (query, answer, want).
	seed(protocol.NewTreeMsg(3, 1, []uint32{0, 15}, nil, nil, nil,
		protocol.TreeCost([]uint32{0, 15}, nil, nil, nil)))
	seed(protocol.NewTreeMsg(0, 2, nil, []uint32{7}, []uint64{^uint64(0)}, nil,
		protocol.TreeCost(nil, []uint32{7}, []uint64{0}, nil)))
	seed(protocol.NewTreeMsg(1, protocol.TreeDepth, nil, nil, nil, []uint32{protocol.TreeLeaves - 1},
		protocol.TreeCost(nil, nil, nil, []uint32{0})))
	f.Add([]byte{64})
	f.Add([]byte{70, 1, 2, 3})
	f.Add([]byte{72, 0, 0, 0, 0, 2, 1})                   // sharded, 2 items, truncated
	f.Add([]byte{73, 0, 0, 0, 0, 255, 255, 255, 255, 15}) // digest, hostile count
	f.Add([]byte{74, 0, 0, 0, 0, 255, 255, 255, 255, 15}) // sharded+digest, hostile count
	f.Add([]byte{75, 0, 0, 0, 0, 0, 3, 0, 255, 255, 15})  // tree, hostile node count
	// The δ-stream: a range item, an ack, both inside a sharded frame,
	// and hostile ranges and counts.
	stream := protocol.NewStreamMsg(12, 15, []protocol.ObjectMsg{
		{Key: "obj:1", Inner: protocol.DeltaOf(crdt.NewGSet("a"))},
	})
	seed(stream)
	seed(&protocol.StreamAckMsg{Seq: 1 << 33})
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 1, Msg: stream},
		{Shard: 4, Msg: &protocol.StreamAckMsg{Seq: 15}},
	}))
	f.Add([]byte{76, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1, 1, 0}) // range end overflows
	f.Add([]byte{76, 0, 1, 255, 255, 255, 255, 15})                         // hostile item count

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := codec.DecodeMsg(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Accepted messages must re-encode, re-decode, and re-encode to
		// the same bytes (canonical fixed point).
		e1, err := codec.EncodeMsg(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, n2, err := codec.DecodeMsg(e1)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if n2 != len(e1) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(e1))
		}
		if m2.Kind() != m.Kind() || m2.Cost() != m.Cost() {
			t.Fatalf("re-decode changed kind/cost: %s/%+v vs %s/%+v",
				m2.Kind(), m2.Cost(), m.Kind(), m.Cost())
		}
		e2, err := codec.EncodeMsg(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not a fixed point: %x vs %x", e1, e2)
		}
	})
}

// FuzzSnapshot checks the snapshot decoder never panics on arbitrary
// file bytes and that accepted files survive a round trip through the
// canonical writer: re-writing the decoded records reproduces the same
// manifest and semantically equal records. (Frame segmentation is not
// part of the format's identity — a fuzz-accepted file may cut frames
// anywhere — so the comparison is record-wise, not byte-wise.)
func FuzzSnapshot(f *testing.F) {
	w := codec.NewSnapshotWriter(3, 16, 2)
	w.Add("c/hits", func() lattice.State {
		c := crdt.NewGCounter()
		c.Inc("n00", 7)
		return c
	}())
	w.Add("s/follows", crdt.NewGSet("a", "b"))
	valid := w.Bytes()
	f.Add(valid)
	f.Add(codec.NewSnapshotWriter(0, 1, 0).Bytes())
	f.Add(valid[:len(valid)-3])           // truncated mid-CRC
	f.Add(append([]byte("CSNP"), 99))     // unknown version
	f.Add([]byte("CSNP\x01\xff\xff\x0f")) // hostile frame length
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			key string
			st  lattice.State
		}
		var recs []rec
		info, err := codec.DecodeSnapshot(data, func(key string, st lattice.State) error {
			recs = append(recs, rec{key, st})
			return nil
		})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if info.Keys != len(recs) {
			t.Fatalf("manifest says %d keys, callback saw %d", info.Keys, len(recs))
		}
		w := codec.NewSnapshotWriter(info.Shard, info.Shards, len(recs))
		for _, r := range recs {
			w.Add(r.key, r.st)
		}
		var recs2 []rec
		info2, err := codec.DecodeSnapshot(w.Bytes(), func(key string, st lattice.State) error {
			recs2 = append(recs2, rec{key, st})
			return nil
		})
		if err != nil {
			t.Fatalf("re-written snapshot failed to decode: %v", err)
		}
		if info2 != info {
			t.Fatalf("re-written manifest %+v, want %+v", info2, info)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("re-written snapshot has %d records, want %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].key != recs[i].key || !recs2[i].st.Equal(recs[i].st) {
				t.Fatalf("record %d changed across the round trip", i)
			}
		}
	})
}

// FuzzDigest targets the anti-entropy control plane specifically: the
// digest advertisement/request and the Merkle drill-down rounds, the
// messages a store decodes straight off hostile connections. Beyond the
// fixed-point check, accepted tree messages must honor the invariants
// the transport relies on without re-validating: parallel nodes/hashes,
// a level inside the drill-down range, and every index under its
// level's node count.
func FuzzDigest(f *testing.F) {
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0), 0xdeadbeef}, nil,
		protocol.DigestCost([]uint64{0, 1, 2}, nil)))
	seed(protocol.NewDigestMsg(nil, []uint32{0, 5, 4294967295},
		protocol.DigestCost(nil, []uint32{0, 5, 6})))
	seed(protocol.NewTreeMsg(0, 1, []uint32{0, 1, 2, 15}, nil, nil, nil,
		protocol.TreeCost([]uint32{0, 1, 2, 15}, nil, nil, nil)))
	seed(protocol.NewTreeMsg(7, 2, nil, []uint32{0, 255}, []uint64{1, ^uint64(0)}, nil,
		protocol.TreeCost(nil, []uint32{0, 255}, []uint64{1, 2}, nil)))
	seed(protocol.NewTreeMsg(4294967295, protocol.TreeDepth, nil, nil, nil,
		[]uint32{0, protocol.TreeLeaves - 1},
		protocol.TreeCost(nil, nil, nil, []uint32{0, 1})))
	f.Add([]byte{73, 0, 0, 0, 0, 255, 255, 255, 255, 15}) // digest, hostile count
	f.Add([]byte{75, 0, 0, 0, 0, 0, 0, 0, 0, 0})          // tree, level 0
	f.Add([]byte{75, 0, 0, 0, 0, 0, 1, 1, 16, 0, 0})      // tree, query index == node count
	f.Add([]byte{75, 0, 0, 0, 0, 0, 3, 0, 1, 2, 1, 2, 3}) // tree, truncated pair hash

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := codec.DecodeMsg(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if tm, ok := m.(*protocol.TreeMsg); ok {
			if len(tm.Nodes) != len(tm.Hashes) {
				t.Fatalf("accepted %d nodes with %d hashes", len(tm.Nodes), len(tm.Hashes))
			}
			if tm.Level < 1 || tm.Level > protocol.TreeDepth {
				t.Fatalf("accepted level %d", tm.Level)
			}
			maxNode := uint32(protocol.TreeNodesAt(int(tm.Level)))
			for _, lst := range [][]uint32{tm.Query, tm.Nodes, tm.Want} {
				for _, idx := range lst {
					if idx >= maxNode {
						t.Fatalf("accepted node index %d at level %d (max %d)", idx, tm.Level, maxNode)
					}
				}
			}
		}
		e1, err := codec.EncodeMsg(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, _, err := codec.DecodeMsg(e1)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		e2, err := codec.EncodeMsg(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not a fixed point: %x vs %x", e1, e2)
		}
	})
}
