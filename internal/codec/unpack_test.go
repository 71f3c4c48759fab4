package codec_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// flatItem is the comparison form of one unpacked item: shard, key (empty
// for keyless items), and the inner message's canonical encoding.
type flatItem struct {
	shard uint32
	key   string
	enc   string
}

// flattenEager expands a decoded ShardedMsg the way UnpackFrame does:
// batches become one entry per object message, anything else one keyless
// entry; items routed beyond the shard count are dropped (and counted).
func flattenEager(t testing.TB, sm *protocol.ShardedMsg, shards int) (kept []flatItem, dropped int) {
	t.Helper()
	for _, it := range sm.Items {
		if it.Shard >= uint32(shards) {
			dropped++
			continue
		}
		if sm, ok := it.Msg.(*protocol.StreamMsg); ok {
			// A stream item flattens into its range marker, then its keys.
			enc, err := codec.EncodeMsg(protocol.NewStreamMsg(sm.Start, sm.End, nil))
			if err != nil {
				t.Fatalf("encode marker: %v", err)
			}
			kept = append(kept, flatItem{shard: it.Shard, enc: string(enc)})
			for _, om := range sm.Items {
				enc, err := codec.EncodeMsg(om.Inner)
				if err != nil {
					t.Fatalf("encode inner: %v", err)
				}
				kept = append(kept, flatItem{shard: it.Shard, key: om.Key, enc: string(enc)})
			}
			continue
		}
		if bm, ok := it.Msg.(*protocol.BatchMsg); ok {
			for _, om := range bm.Items {
				enc, err := codec.EncodeMsg(om.Inner)
				if err != nil {
					t.Fatalf("encode inner: %v", err)
				}
				kept = append(kept, flatItem{shard: it.Shard, key: om.Key, enc: string(enc)})
			}
			continue
		}
		enc, err := codec.EncodeMsg(it.Msg)
		if err != nil {
			t.Fatalf("encode msg: %v", err)
		}
		kept = append(kept, flatItem{shard: it.Shard, enc: string(enc)})
	}
	return kept, dropped
}

// flattenView lowers a FrameView's groups into comparison items, checking
// the grouping invariants on the way: every group's items carry its shard,
// no shard appears in two groups, and each view's lazy decode agrees with
// its raw payload.
func flattenView(t testing.TB, v *codec.FrameView) []flatItem {
	t.Helper()
	var out []flatItem
	seen := make(map[uint32]bool)
	for _, g := range v.Groups() {
		if seen[g.Shard] {
			t.Fatalf("shard %d appears in two groups", g.Shard)
		}
		seen[g.Shard] = true
		for i := range g.Items {
			iv := &g.Items[i]
			if iv.Shard != g.Shard {
				t.Fatalf("item shard %d inside group %d", iv.Shard, g.Shard)
			}
			m, err := iv.Msg()
			if err != nil {
				t.Fatalf("lazy decode: %v", err)
			}
			// Compare re-encodings, not raw payload bytes: the decoders
			// (and the skip walk, identically) tolerate non-minimal
			// uvarints, so an accepted hostile payload may re-encode
			// shorter than the wire form.
			enc, err := codec.EncodeMsg(m)
			if err != nil {
				t.Fatalf("re-encode decoded item: %v", err)
			}
			out = append(out, flatItem{shard: g.Shard, key: string(iv.Key), enc: string(enc)})
		}
	}
	return out
}

// checkUnpacked verifies that unpacking data matches the eager decode of
// the same bytes, modulo the stable shard grouping.
func checkUnpacked(t testing.TB, data []byte, shards int, v *codec.FrameView) {
	t.Helper()
	m, _, err := codec.DecodeMsg(data)
	if err != nil {
		t.Fatalf("eager decode: %v", err)
	}
	sm, ok := m.(*protocol.ShardedMsg)
	if !ok {
		t.Fatalf("eager decode produced %T, want *ShardedMsg", m)
	}
	if err := codec.UnpackFrame(data, shards, v); err != nil {
		t.Fatalf("UnpackFrame: %v", err)
	}
	if v.Cost != sm.Cost() {
		t.Fatalf("cost %+v, want %+v", v.Cost, sm.Cost())
	}
	if len(v.Digests) != len(sm.Digests) {
		t.Fatalf("digests %v, want %v", v.Digests, sm.Digests)
	}
	for i := range v.Digests {
		if v.Digests[i] != sm.Digests[i] {
			t.Fatalf("digests %v, want %v", v.Digests, sm.Digests)
		}
	}
	want, dropped := flattenEager(t, sm, shards)
	if v.Dropped != dropped {
		t.Fatalf("Dropped = %d, want %d", v.Dropped, dropped)
	}
	// The view groups by shard but keeps per-shard wire order: a stable
	// sort of the eager flattening is the expected sequence.
	sort.SliceStable(want, func(i, j int) bool { return want[i].shard < want[j].shard })
	got := flattenView(t, v)
	if len(got) != len(want) {
		t.Fatalf("unpacked %d items, want %d", len(got), len(want))
	}
	if v.NumItems() != len(want) {
		t.Fatalf("NumItems = %d, want %d", v.NumItems(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func encodeMsg(t testing.TB, m protocol.Msg) []byte {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

func unpackGSetDelta(seed, n int) protocol.Msg {
	els := make([]string, n)
	for i := range els {
		els[i] = fmt.Sprintf("el-%d-%d", seed, i)
	}
	s := crdt.NewGSet(els...)
	return protocol.NewDeltaMsg(s, metrics.Transmission{
		Messages: 1, Elements: s.Elements(), PayloadBytes: s.SizeBytes(),
	})
}

func unpackBatch(shard uint32, keys ...string) protocol.ShardItem {
	oms := make([]protocol.ObjectMsg, 0, len(keys))
	for i, k := range keys {
		oms = append(oms, protocol.ObjectMsg{Key: k, Inner: unpackGSetDelta(int(shard)*100+i, 1+i)})
	}
	return protocol.ShardItem{Shard: shard, Msg: protocol.BatchOf(oms)}
}

// TestUnpackFrameGrouped covers the common case: a packer-built frame
// whose items already arrive in shard order, plus view reuse across
// frames of both sharded variants.
func TestUnpackFrameGrouped(t *testing.T) {
	var v codec.FrameView
	first := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(0, "a", "b"),
		{Shard: 1, Msg: &protocol.StreamAckMsg{Seq: 5}},
		unpackBatch(1, "c"),
		unpackBatch(3, "d", "e", "f"),
	}))
	checkUnpacked(t, first, 4, &v)
	if got := len(v.Groups()); got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
	// Reuse the same view on a digest-carrying frame: everything from the
	// first unpack must be gone.
	second := encodeMsg(t, protocol.NewShardedDigestMsg([]protocol.ShardItem{
		unpackBatch(2, "x"),
	}, []uint64{7, 8, 9, 10}))
	checkUnpacked(t, second, 4, &v)
	if got := len(v.Groups()); got != 1 {
		t.Fatalf("groups = %d, want 1", got)
	}
}

// TestUnpackFrameInterleaved covers the counting-sort fallback: shard
// runs split across the frame regroup into one group per shard with the
// per-shard wire order preserved.
func TestUnpackFrameInterleaved(t *testing.T) {
	var v codec.FrameView
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(2, "c1"),
		unpackBatch(0, "a1", "a2"),
		unpackBatch(2, "c2"),
		unpackBatch(1, "b1"),
		unpackBatch(0, "a3"),
	}))
	checkUnpacked(t, data, 4, &v)
	if got := len(v.Groups()); got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
}

// TestUnpackFrameDropped covers shard-map skew: items routed beyond the
// receiver's shard count are counted and skipped, not delivered.
func TestUnpackFrameDropped(t *testing.T) {
	var v codec.FrameView
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(1, "keep"),
		unpackBatch(9, "drop1", "drop2"),
		unpackBatch(40_000, "drop3"),
	}))
	checkUnpacked(t, data, 4, &v)
	if v.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", v.Dropped)
	}
	if v.NumItems() != 1 {
		t.Fatalf("NumItems = %d, want 1", v.NumItems())
	}
}

// TestUnpackFrameNotSharded: every non-sharded message kind falls back to
// the eager decoder via the sentinel error.
func TestUnpackFrameNotSharded(t *testing.T) {
	var v codec.FrameView
	for _, m := range []protocol.Msg{
		unpackGSetDelta(1, 3),
		protocol.NewDigestMsg([]uint64{1, 2}, nil, protocol.DigestCost([]uint64{1, 2}, nil)),
		protocol.NewBatchMsg(nil, metrics.Transmission{Messages: 1}),
	} {
		if err := codec.UnpackFrame(encodeMsg(t, m), 4, &v); !errors.Is(err, codec.ErrNotSharded) {
			t.Fatalf("%s: err = %v, want ErrNotSharded", m.Kind(), err)
		}
	}
	if err := codec.UnpackFrame(nil, 4, &v); err == nil || errors.Is(err, codec.ErrNotSharded) {
		t.Fatalf("empty input: err = %v, want a truncation error", err)
	}
}

// TestUnpackFrameHostile: truncated and count-inflated frames fail with
// an error before any large allocation, mirroring the eager decoder.
func TestUnpackFrameHostile(t *testing.T) {
	var v codec.FrameView
	for _, data := range [][]byte{
		{72, 0, 0, 0, 0, 2, 1},                   // sharded, 2 items, truncated
		{74, 0, 0, 0, 0, 255, 255, 255, 255, 15}, // sharded+digest, hostile digest count
		{72, 0, 0, 0, 0, 255, 255, 255, 255, 15}, // sharded, hostile item count
	} {
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Fatalf("%v: accepted hostile input", data)
		}
	}
	// A valid frame must also unpack after hostile failures reused the view.
	checkUnpacked(t, encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(0, "ok"),
	})), 4, &v)
}

// TestItemViewTags: wire-tag classification without decoding.
func TestItemViewTags(t *testing.T) {
	var v codec.FrameView
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 0, Msg: &protocol.StreamAckMsg{Seq: 1}},
		unpackBatch(1, "k"),
	}))
	if err := codec.UnpackFrame(data, 4, &v); err != nil {
		t.Fatalf("UnpackFrame: %v", err)
	}
	groups := v.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if !codec.IsAckTag(groups[0].Items[0].Tag()) {
		t.Fatalf("ack item not classified by tag")
	}
	if codec.IsAckTag(groups[1].Items[0].Tag()) {
		t.Fatalf("delta item classified as ack")
	}
}

// FuzzUnpackFrame differentially fuzzes the single-pass unpacker against
// the eager decoder: on any input, UnpackFrame must never panic, must
// accept exactly the sharded frames DecodeMsg accepts (rejecting other
// accepted kinds with ErrNotSharded), and on acceptance must produce the
// same items, digests, cost and drop count — with every payload view
// decoding to bytes identical to its eager counterpart (alias safety:
// views index the input buffer, decodes copy out of it).
func FuzzUnpackFrame(f *testing.F) {
	cost := metrics.Transmission{Messages: 1}
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	batch := protocol.NewBatchMsg([]protocol.ObjectMsg{
		{Key: "obj:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"), cost)},
		{Key: "obj:2", Inner: protocol.NewDeltaMsg(crdt.NewGSet("b"), cost)},
	}, cost)
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 7, Msg: &protocol.StreamAckMsg{Seq: 9}}, // beyond the fuzz shard count: dropped
	}))
	seed(protocol.NewShardedDigestMsg([]protocol.ShardItem{
		{Shard: 3, Msg: protocol.NewDeltaMsg(crdt.NewGSet("p"), cost)},
		{Shard: 1, Msg: batch}, // out of shard order: counting-sort path
	}, []uint64{0, ^uint64(0), 0xabcdef}))
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0)}, []uint32{1, 3},
		protocol.DigestCost([]uint64{0, 1}, []uint32{1, 3})))
	// Standalone drill-down rounds (not sharded) and one embedded in a
	// sharded item, exercising the tree branch of the skip walker.
	seed(protocol.NewTreeMsg(2, 1, []uint32{0, 15}, nil, nil, nil,
		protocol.TreeCost([]uint32{0, 15}, nil, nil, nil)))
	seed(protocol.NewTreeMsg(0, 2, nil, []uint32{9}, []uint64{^uint64(0)}, nil,
		protocol.TreeCost(nil, []uint32{9}, []uint64{0}, nil)))
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 1, Msg: protocol.NewTreeMsg(1, protocol.TreeDepth, nil, nil, nil,
			[]uint32{5}, protocol.TreeCost(nil, nil, nil, []uint32{5}))},
	}))
	f.Add([]byte{72, 0, 0, 0, 0, 2, 1})                   // sharded, 2 items, truncated
	f.Add([]byte{74, 0, 0, 0, 0, 255, 255, 255, 255, 15}) // sharded+digest, hostile count
	f.Add([]byte{72, 0, 0, 0, 0, 1, 3, 70, 0, 0, 0, 0, 1, 1, 97, 64, 0, 0, 0, 0, 1})
	f.Add([]byte{72, 0, 0, 0, 0, 1, 2, 75, 0, 0, 0, 0, 0, 3, 0, 1, 2, 1, 2, 3}) // embedded tree, truncated pair
	// δ-stream ranges and acks, in and out of shard order, one routed
	// beyond the fuzz shard count.
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 2, Msg: protocol.NewStreamMsg(5, 8, []protocol.ObjectMsg{
			{Key: "obj:1", Inner: protocol.DeltaOf(crdt.NewGSet("a"))},
			{Key: "obj:2", Inner: protocol.DeltaOf(crdt.NewGSet("b", "c"))},
		})},
		{Shard: 0, Msg: &protocol.StreamAckMsg{Seq: 77}},
		{Shard: 2, Msg: protocol.NewStreamMsg(8, 8, nil)},
		{Shard: 9, Msg: &protocol.StreamAckMsg{Seq: 1}},
	}))
	f.Add([]byte{72, 0, 0, 0, 0, 1, 0, 76, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1, 1, 0}) // overflowing range
	f.Add([]byte{72, 0, 0, 0, 0, 1, 0, 76, 0, 1, 255, 255, 255, 255, 15})                         // hostile item count

	const shards = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		// Work on a copy: the alias-safety check below clobbers the frame
		// buffer, and the fuzz engine owns data.
		buf := append([]byte(nil), data...)
		var v codec.FrameView
		uerr := codec.UnpackFrame(buf, shards, &v)
		m, _, derr := codec.DecodeMsg(data)
		sm, sharded := m.(*protocol.ShardedMsg)
		switch {
		case derr != nil:
			// The eager decoder rejects this input; the unpacker must too
			// (possibly as not-sharded, when the leading tag already rules
			// the frame out).
			if uerr == nil {
				t.Fatalf("unpacker accepted input the decoder rejects: %v", derr)
			}
			return
		case !sharded:
			if !errors.Is(uerr, codec.ErrNotSharded) {
				t.Fatalf("non-sharded %s: err = %v, want ErrNotSharded", m.Kind(), uerr)
			}
			return
		case uerr != nil:
			t.Fatalf("unpacker rejected a decodable sharded frame: %v", uerr)
		}
		// Mutating the input after unpacking must not corrupt decoded
		// messages: Msg() copies out of the buffer. Decode every view
		// first, then clobber, then compare against the eager flattening.
		checkUnpacked(t, buf, shards, &v)
		got := flattenView(t, &v)
		for i := range buf {
			buf[i] = 0xff
		}
		want, _ := flattenEager(t, sm, shards)
		sort.SliceStable(want, func(i, j int) bool { return want[i].shard < want[j].shard })
		for i := range got {
			if got[i].enc != want[i].enc {
				t.Fatalf("decoded item %d changed after buffer reuse", i)
			}
		}
	})
}

// unpackBenchFrame builds a sync-tick frame: one per-shard batch of
// single-element GSet deltas for each of shards shards, objects per
// batch — the same shapes the transport's BenchmarkDeliver uses.
func unpackBenchFrame(tb testing.TB, shards, objectsPerShard int) []byte {
	tb.Helper()
	items := make([]protocol.ShardItem, 0, shards)
	for sh := 0; sh < shards; sh++ {
		oms := make([]protocol.ObjectMsg, 0, objectsPerShard)
		for i := 0; i < objectsPerShard; i++ {
			oms = append(oms, protocol.ObjectMsg{
				Key:   fmt.Sprintf("k%d-%d", sh, i),
				Inner: unpackGSetDelta(sh*100+i, 1),
			})
		}
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: protocol.BatchOf(oms)})
	}
	return encodeMsg(tb, protocol.NewShardedMsg(items))
}

// BenchmarkUnpack measures the codec half of the inbound path: turning
// frame bytes into shard-grouped, lock-routable items. The view path
// walks the frame once into payload views that alias the buffer (item
// decode is deferred to the point of apply, and never happens at all
// for acks and digests); the decode-baseline is what the transport did
// before — materialize the full ShardedMsg tree up front.
func BenchmarkUnpack(b *testing.B) {
	for _, shape := range []struct {
		name            string
		shards, objects int
	}{
		{name: "hot", shards: 4, objects: 1},
		{name: "bulk", shards: 64, objects: 32},
	} {
		frame := unpackBenchFrame(b, shape.shards, shape.objects)
		items := shape.shards * shape.objects
		b.Run(shape.name+"/view", func(b *testing.B) {
			var v codec.FrameView
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.UnpackFrame(frame, shape.shards, &v); err != nil {
					b.Fatalf("UnpackFrame: %v", err)
				}
				if v.NumItems() != items {
					b.Fatalf("items = %d, want %d", v.NumItems(), items)
				}
			}
			b.ReportMetric(float64(items), "items/op")
		})
		b.Run(shape.name+"/decode-baseline", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, _, err := codec.DecodeMsg(frame)
				if err != nil {
					b.Fatalf("DecodeMsg: %v", err)
				}
				if _, ok := m.(*protocol.ShardedMsg); !ok {
					b.Fatalf("decoded %T", m)
				}
			}
			b.ReportMetric(float64(items), "items/op")
		})
	}
}

// TestUnpackStreamItems: a δ-stream item flattens into its range marker
// and one state view per key, and a stream ack is classified — and its
// watermark read — without decoding a message.
func TestUnpackStreamItems(t *testing.T) {
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 1, Msg: protocol.NewStreamMsg(3, 9, []protocol.ObjectMsg{
			{Key: "a", Inner: protocol.DeltaOf(crdt.NewGSet("x"))},
			{Key: "b", Inner: protocol.DeltaOf(crdt.NewGSet("y", "z"))},
		})},
		{Shard: 2, Msg: &protocol.StreamAckMsg{Seq: 300}},
	}))
	var v codec.FrameView
	checkUnpacked(t, data, 4, &v)
	g := v.Groups()
	if len(g) != 2 || len(g[0].Items) != 3 || len(g[1].Items) != 1 {
		t.Fatalf("groups = %+v", g)
	}
	marker := &g[0].Items[0]
	if !marker.IsRange() || marker.Start != 3 || marker.End != 9 || marker.Key != nil {
		t.Fatalf("marker = %+v", marker)
	}
	for i, key := range []string{"a", "b"} {
		iv := &g[0].Items[i+1]
		if iv.IsRange() || string(iv.Key) != key || codec.IsAckTag(iv.Tag()) {
			t.Fatalf("item %d = %+v", i+1, iv)
		}
		if _, ok := iv.Ack(); ok {
			t.Fatalf("state view %q read as an ack", key)
		}
	}
	ack := &g[1].Items[0]
	if !codec.IsAckTag(ack.Tag()) {
		t.Fatal("stream ack not classified by tag")
	}
	if seq, ok := ack.Ack(); !ok || seq != 300 {
		t.Fatalf("Ack() = %d, %v; want 300, true", seq, ok)
	}
}
