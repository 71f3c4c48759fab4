package codec_test

import (
	"encoding/binary"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/vclock"
)

func cost() metrics.Transmission {
	return metrics.Transmission{Messages: 1, Elements: 3, PayloadBytes: 17, MetadataBytes: 9}
}

// msgRoundTrip encodes and decodes a message, checking cost preservation.
func msgRoundTrip(t *testing.T, m protocol.Msg) protocol.Msg {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, n, err := codec.DecodeMsg(data)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if n != len(data) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(data))
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind = %q, want %q", got.Kind(), m.Kind())
	}
	if got.Cost() != m.Cost() {
		t.Fatalf("cost = %+v, want %+v", got.Cost(), m.Cost())
	}
	return got
}

func TestStateMsgRoundTrip(t *testing.T) {
	m := protocol.NewStateMsg(crdt.NewGSet("a", "b"), cost())
	got := msgRoundTrip(t, m).(*protocol.StateMsg)
	if !got.State.Equal(m.State) {
		t.Error("state payload mismatch")
	}
}

func TestDeltaMsgRoundTrip(t *testing.T) {
	m := protocol.NewDeltaMsg(crdt.NewGSet("d"), cost())
	got := msgRoundTrip(t, m).(*protocol.DeltaMsg)
	if !got.Delta.Equal(m.Delta) {
		t.Error("delta payload mismatch")
	}
}

func TestSBDigestRoundTrip(t *testing.T) {
	vec := vclock.New()
	vec.Set("n00", 4)
	vec.Set("n01", 2)
	// Plain digest (no matrix).
	m := protocol.NewSBDigestMsg(vec, nil, cost())
	got := msgRoundTrip(t, m).(*protocol.SBDigestMsg)
	if !got.Vec.Equal(vec) || got.Matrix != nil {
		t.Error("plain digest mismatch")
	}
	// GC digest with matrix.
	other := vclock.New()
	other.Set("n02", 8)
	mg := protocol.NewSBDigestMsg(vec, map[string]*vclock.VClock{"n00": vec.Clone(), "n02": other}, cost())
	gotGC := msgRoundTrip(t, mg).(*protocol.SBDigestMsg)
	if len(gotGC.Matrix) != 2 || !gotGC.Matrix["n02"].Equal(other) {
		t.Error("matrix mismatch")
	}
}

func TestSBDeltasRoundTrip(t *testing.T) {
	items := []protocol.SBItem{
		{Dot: vclock.Dot{Actor: "n00", Seq: 1}, Delta: crdt.NewGSet("p")},
		{Dot: vclock.Dot{Actor: "n01", Seq: 5}, Delta: crdt.NewGSet("q")},
	}
	m := protocol.NewSBDeltasMsg(items, cost())
	got := msgRoundTrip(t, m).(*protocol.SBDeltasMsg)
	if len(got.Items) != 2 || got.Items[1].Dot.Seq != 5 {
		t.Errorf("items = %+v", got.Items)
	}
	if !got.Items[0].Delta.Equal(items[0].Delta) {
		t.Error("item delta mismatch")
	}
}

func TestOpsMsgRoundTrip(t *testing.T) {
	dep := vclock.New()
	dep.Set("n00", 2)
	ops := []protocol.TaggedOp{{
		Dot:     vclock.Dot{Actor: "n00", Seq: 3},
		Dep:     dep,
		Payload: crdt.NewGSet("op-elem"),
		OpBytes: 7,
	}}
	m := protocol.NewOpsMsg(ops, cost())
	got := msgRoundTrip(t, m).(*protocol.OpsMsg)
	if len(got.Ops) != 1 {
		t.Fatalf("ops = %d", len(got.Ops))
	}
	op := got.Ops[0]
	if op.Dot != ops[0].Dot || op.OpBytes != 7 || !op.Dep.Equal(dep) || !op.Payload.Equal(ops[0].Payload) {
		t.Errorf("op mismatch: %+v", op)
	}
}

func TestBatchMsgRoundTrip(t *testing.T) {
	items := []protocol.ObjectMsg{
		{Key: "obj1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"), cost())},
		{Key: "obj2", Inner: protocol.NewStateMsg(crdt.NewGCounter(), cost())},
	}
	m := protocol.NewBatchMsg(items, cost())
	got := msgRoundTrip(t, m).(*protocol.BatchMsg)
	if len(got.Items) != 2 || got.Items[0].Key != "obj1" {
		t.Fatalf("items = %+v", got.Items)
	}
	if got.Items[0].Inner.Kind() != "delta" || got.Items[1].Inner.Kind() != "state" {
		t.Error("nested message kinds mismatch")
	}
}

func TestShardedMsgRoundTrip(t *testing.T) {
	batch := protocol.NewBatchMsg([]protocol.ObjectMsg{
		{Key: "user:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"), cost())},
		{Key: "user:2", Inner: protocol.NewDeltaMsg(crdt.NewGSet("b"), cost())},
	}, cost())
	items := []protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 13, Msg: protocol.NewDeltaMsg(crdt.NewGSet("c"), cost())},
	}
	m := protocol.NewShardedMsg(items)
	got := msgRoundTrip(t, m).(*protocol.ShardedMsg)
	if len(got.Items) != 2 || got.Items[1].Shard != 13 {
		t.Fatalf("items = %+v", got.Items)
	}
	inner, ok := got.Items[0].Msg.(*protocol.BatchMsg)
	if !ok || len(inner.Items) != 2 || inner.Items[1].Key != "user:2" {
		t.Errorf("nested batch mismatch: %+v", got.Items[0].Msg)
	}
	if got.Items[1].Msg.Kind() != "delta" {
		t.Errorf("second item kind = %q, want delta", got.Items[1].Msg.Kind())
	}
}

func TestShardedDigestMsgRoundTrip(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 2, Msg: protocol.NewDeltaMsg(crdt.NewGSet("a"), cost())},
	}
	vec := []uint64{7, 0, ^uint64(0), 0xfeedface}
	m := protocol.NewShardedDigestMsg(items, vec)
	got := msgRoundTrip(t, m).(*protocol.ShardedMsg)
	if len(got.Items) != 1 || got.Items[0].Shard != 2 {
		t.Fatalf("items = %+v", got.Items)
	}
	if len(got.Digests) != 4 || got.Digests[2] != ^uint64(0) || got.Digests[3] != 0xfeedface {
		t.Errorf("digests = %v", got.Digests)
	}
	// The plain and digest-carrying variants use distinct wire tags, so a
	// nil vector must re-encode to the plain encoding and a non-nil one
	// (even empty) to the digest-carrying encoding — the canonical fixed
	// point the fuzz target demands.
	plain, _ := codec.EncodeMsg(protocol.NewShardedMsg(items))
	carrying, _ := codec.EncodeMsg(m)
	if plain[0] == carrying[0] {
		t.Error("digest-carrying encoding shares the plain tag")
	}
	empty, _ := codec.EncodeMsg(protocol.NewShardedDigestMsg(items, []uint64{}))
	if empty[0] != carrying[0] {
		t.Error("empty non-nil vector should keep the digest-carrying tag")
	}
	gotEmpty, _, err := codec.DecodeMsg(empty)
	if err != nil {
		t.Fatal(err)
	}
	if gotEmpty.(*protocol.ShardedMsg).Digests == nil {
		t.Error("empty vector decoded to nil: re-encode would change tags")
	}
}

func TestShardedDigestMsgHostileCount(t *testing.T) {
	// The piggybacked vector's count is bounds-checked against the actual
	// remaining bytes before allocating, like DigestMsg's.
	header := []byte{74, 0, 0, 0, 0} // tagShardedDigestMsg, zero cost
	for _, count := range []uint64{1 << 60, 3} {
		data := binary.AppendUvarint(append([]byte{}, header...), count)
		data = append(data, make([]byte, 16)...) // room for only 2 digests
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("digest count %d over 16 payload bytes should fail", count)
		}
	}
}

func TestMergeSharded(t *testing.T) {
	itemsA := []protocol.ShardItem{
		{Shard: 1, Msg: protocol.NewDeltaMsg(crdt.NewGSet("a"), cost())},
		{Shard: 2, Msg: protocol.NewDeltaMsg(crdt.NewGSet("b"), cost())},
	}
	itemsB := []protocol.ShardItem{
		{Shard: 9, Msg: &protocol.StreamAckMsg{Seq: 4}},
	}
	ma, mb := protocol.NewShardedMsg(itemsA), protocol.NewShardedMsg(itemsB)
	ea, _ := codec.EncodeMsg(ma)
	eb, _ := codec.EncodeMsg(mb)
	if !codec.CanMergeSharded(ea) || !codec.CanMergeSharded(eb) {
		t.Fatal("plain sharded frames reported unmergeable")
	}
	merged, ok := codec.MergeSharded([][]byte{ea, eb})
	if !ok {
		t.Fatal("two plain sharded frames refused to merge")
	}
	if len(merged) > len(ea)+len(eb) {
		t.Errorf("merged %d bytes from %d+%d: merging must never grow", len(merged), len(ea), len(eb))
	}
	got, n, err := codec.DecodeMsg(merged)
	if err != nil || n != len(merged) {
		t.Fatalf("merged frame decode: n=%d err=%v", n, err)
	}
	sm := got.(*protocol.ShardedMsg)
	if len(sm.Items) != 3 || sm.Items[0].Shard != 1 || sm.Items[2].Shard != 9 {
		t.Fatalf("merged items = %+v", sm.Items)
	}
	wantCost := ma.Cost()
	wantCost.Add(mb.Cost())
	if sm.Cost() != wantCost {
		t.Errorf("merged cost = %+v, want summed %+v", sm.Cost(), wantCost)
	}
	// Non-mergeable inputs: a digest-carrying frame (its vector describes
	// one instant, not a range) and a non-sharded message. CanMergeSharded
	// must agree with MergeSharded on every case.
	ec, _ := codec.EncodeMsg(protocol.NewShardedDigestMsg(itemsB, []uint64{1, 2}))
	if _, ok := codec.MergeSharded([][]byte{ea, ec}); ok || codec.CanMergeSharded(ec) {
		t.Error("digest-carrying frame must not merge")
	}
	ed, _ := codec.EncodeMsg(&protocol.StreamAckMsg{Seq: 1})
	if _, ok := codec.MergeSharded([][]byte{ea, ed}); ok || codec.CanMergeSharded(ed) {
		t.Error("non-sharded frame must not merge")
	}
	if _, ok := codec.MergeSharded([][]byte{nil, ea}); ok {
		t.Error("empty input must not merge")
	}
	if _, ok := codec.MergeSharded(nil); ok {
		t.Error("empty frame list must not merge")
	}
}

func TestShardedMsgCostAggregation(t *testing.T) {
	inner := protocol.NewDeltaMsg(crdt.NewGSet("x", "y"), metrics.Transmission{
		Messages: 1, Elements: 2, PayloadBytes: 10, MetadataBytes: 8,
	})
	m := protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 3, Msg: inner}})
	c := m.Cost()
	if c.Messages != 1 {
		t.Errorf("messages = %d, want 1 (one frame on the wire)", c.Messages)
	}
	if c.Elements != 2 || c.PayloadBytes != 10 {
		t.Errorf("payload accounting = %+v, want inner sums", c)
	}
	if c.MetadataBytes != 8+4 {
		t.Errorf("metadata = %d, want inner 8 + 4 routing bytes", c.MetadataBytes)
	}
}

func TestDigestMsgRoundTrip(t *testing.T) {
	// Advertisement: a digest vector, no wants.
	vec := []uint64{0, 1, ^uint64(0), 0xdeadbeefcafe}
	m := protocol.NewDigestMsg(vec, nil, cost())
	got := msgRoundTrip(t, m).(*protocol.DigestMsg)
	if len(got.Digests) != 4 || got.Digests[2] != ^uint64(0) || got.Digests[3] != 0xdeadbeefcafe {
		t.Errorf("digests = %v", got.Digests)
	}
	if got.Want != nil {
		t.Errorf("want = %v, want nil", got.Want)
	}
	// Request: shard indices, no digests.
	r := protocol.NewDigestMsg(nil, []uint32{0, 13, 4294967295}, cost())
	gotR := msgRoundTrip(t, r).(*protocol.DigestMsg)
	if len(gotR.Want) != 3 || gotR.Want[2] != 4294967295 {
		t.Errorf("want = %v", gotR.Want)
	}
	if gotR.Digests != nil {
		t.Errorf("digests = %v, want nil", gotR.Digests)
	}
}

func TestTreeMsgRoundTrip(t *testing.T) {
	// Query round (drill-down request).
	q := protocol.NewTreeMsg(7, 1, []uint32{0, 5, 15}, nil, nil, nil, cost())
	gotQ := msgRoundTrip(t, q).(*protocol.TreeMsg)
	if gotQ.Shard != 7 || gotQ.Level != 1 {
		t.Errorf("shard/level = %d/%d", gotQ.Shard, gotQ.Level)
	}
	if len(gotQ.Query) != 3 || gotQ.Query[2] != 15 || gotQ.Nodes != nil || gotQ.Want != nil {
		t.Errorf("query round = %+v", gotQ)
	}
	// Answer round (nodes + hashes, parallel slices).
	a := protocol.NewTreeMsg(0, 2, nil, []uint32{3, 255}, []uint64{0, ^uint64(0)}, nil, cost())
	gotA := msgRoundTrip(t, a).(*protocol.TreeMsg)
	if len(gotA.Nodes) != 2 || gotA.Nodes[1] != 255 || len(gotA.Hashes) != 2 || gotA.Hashes[1] != ^uint64(0) {
		t.Errorf("answer round = %+v", gotA)
	}
	// Want round (leaf-level range request).
	w := protocol.NewTreeMsg(4294967295, protocol.TreeDepth, nil, nil, nil,
		[]uint32{0, protocol.TreeLeaves - 1}, cost())
	gotW := msgRoundTrip(t, w).(*protocol.TreeMsg)
	if gotW.Shard != 4294967295 || len(gotW.Want) != 2 || gotW.Want[1] != protocol.TreeLeaves-1 {
		t.Errorf("want round = %+v", gotW)
	}
}

func TestEncodeTreeMsgMismatchedHashes(t *testing.T) {
	m := protocol.NewTreeMsg(0, 1, nil, []uint32{1, 2}, []uint64{9}, nil, cost())
	if _, err := codec.EncodeMsg(m); err == nil {
		t.Error("nodes/hashes length mismatch should fail encoding")
	}
}

func TestDecodeTreeHostileInput(t *testing.T) {
	header := []byte{75, 0, 0, 0, 0, 0} // tagTreeMsg, zero cost, shard 0
	// Levels outside [1, TreeDepth] bound no node index and must fail.
	for _, level := range []byte{0, protocol.TreeDepth + 1, 255} {
		data := append(append([]byte{}, header...), level)
		data = append(data, 0, 0, 0) // empty query/nodes/want
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("level %d should fail decoding", level)
		}
	}
	// A query index at the level's node count must be rejected, not
	// passed through to alias another node.
	data := append(append([]byte{}, header...), 1) // level 1: 16 nodes
	data = binary.AppendUvarint(data, 1)           // one query index
	data = binary.AppendUvarint(data, 16)          // == TreeNodesAt(1)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("out-of-range query index should fail decoding")
	}
	// A node count promising far more pairs than the payload holds must
	// fail before allocating.
	data = append(append([]byte{}, header...), 3, 0) // leaf level, no query
	data = binary.AppendUvarint(data, 1<<50)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("hostile node count should fail decoding")
	}
	// A pair whose hash is truncated must fail.
	data = append(append([]byte{}, header...), 3, 0)
	data = binary.AppendUvarint(data, 1) // one pair
	data = binary.AppendUvarint(data, 2) // node index
	data = append(data, 1, 2, 3)         // only 3 of 8 hash bytes
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("truncated node hash should fail decoding")
	}
	// A shard index beyond uint32 must be rejected, as everywhere else.
	data = []byte{75, 0, 0, 0, 0}
	data = binary.AppendUvarint(data, uint64(1)<<35)
	data = append(data, 1, 0, 0, 0)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("out-of-range shard index should fail decoding")
	}
	// Truncated before the level byte.
	data = []byte{75, 0, 0, 0, 0, 0}
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("message truncated at level should fail decoding")
	}
}

func TestDecodeDigestHostileInput(t *testing.T) {
	header := []byte{73, 0, 0, 0, 0} // tagDigestMsg, zero cost
	// A count promising 2^60 digests in a few bytes must fail before
	// allocating, as must one barely above the actual payload.
	for _, count := range []uint64{1 << 60, 3} {
		data := binary.AppendUvarint(append([]byte{}, header...), count)
		data = append(data, make([]byte, 16)...) // room for only 2 digests
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("count %d over 16 payload bytes should fail", count)
		}
	}
	// A want index beyond uint32 must be rejected, not truncated into the
	// valid shard range.
	data := append(append([]byte{}, header...), 0) // no digests
	data = binary.AppendUvarint(data, 1)           // one want
	data = binary.AppendUvarint(data, uint64(1)<<34)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("out-of-range want index should fail decoding")
	}
	// Truncated want list.
	data = append(append([]byte{}, header...), 0)
	data = binary.AppendUvarint(data, 5) // promises 5 wants, has none
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("truncated want list should fail decoding")
	}
}

func TestDecodeShardIndexOutOfRange(t *testing.T) {
	// A shard index beyond uint32 must be rejected, not truncated into
	// the valid range where it would bypass the receiver's bounds check.
	msg := []byte{72, 0, 0, 0, 0, 1}               // sharded, zero cost, 1 item
	msg = binary.AppendUvarint(msg, uint64(1)<<33) // hostile shard index
	inner, _ := codec.EncodeMsg(&protocol.StreamAckMsg{})
	msg = append(msg, inner...)
	if _, _, err := codec.DecodeMsg(msg); err == nil {
		t.Error("out-of-range shard index should fail decoding")
	}
}

func TestDecodeHostileNestingDoesNotPanic(t *testing.T) {
	// A chain of container prefixes far past legitimate nesting must fail
	// with an error, not exhaust the stack.
	var msg []byte
	for i := 0; i < 1000; i++ {
		msg = append(msg, 72)         // tagShardedMsg
		msg = append(msg, 0, 0, 0, 0) // zero cost
		msg = append(msg, 1)          // one item
		msg = append(msg, 0)          // shard 0
	}
	if _, _, err := codec.DecodeMsg(msg); err == nil {
		t.Error("deeply nested sharded message should fail")
	}
	var state []byte
	for i := 0; i < 1000; i++ {
		state = append(state, 4)    // tagMap
		state = append(state, 1, 0) // one entry, empty key
	}
	if _, _, err := codec.Decode(state); err == nil {
		t.Error("deeply nested map state should fail")
	}
}

func TestDecodeMsgErrors(t *testing.T) {
	if _, _, err := codec.DecodeMsg(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := codec.DecodeMsg([]byte{200, 0, 0, 0, 0}); err == nil {
		t.Error("unknown tag should fail")
	}
	data, _ := codec.EncodeMsg(protocol.NewDeltaMsg(crdt.NewGSet("abc"), cost()))
	if _, _, err := codec.DecodeMsg(data[:3]); err == nil {
		t.Error("truncated message should fail")
	}
}

func TestDecodeHostileCountDoesNotPanic(t *testing.T) {
	// A frame declaring an absurd element count (here 2^60 sharded items
	// in a few bytes) must fail with a decode error, not panic allocating
	// the claimed capacity. Exercise every counted message shape.
	encodeHeader := func(tag byte) []byte {
		b := []byte{tag}
		b = append(b, 0, 0, 0, 0) // zero cost
		return b
	}
	hugeCount := binary.AppendUvarint(nil, 1<<60)
	for _, tag := range []byte{68, 69, 70, 71, 72} { // sbdigest..sharded
		data := encodeHeader(tag)
		if tag == 68 { // SBDigestMsg: empty vector, matrix present
			data = append(data, 0, 1)
		}
		data = append(data, hugeCount...)
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("tag %d: hostile count should fail", tag)
		}
	}
}

// TestStreamMsgRoundTrip covers the δ-stream item: a range carried once
// and bare (key, state) pairs, with the accounting derived on decode.
func TestStreamMsgRoundTrip(t *testing.T) {
	m := protocol.NewStreamMsg(40, 47, []protocol.ObjectMsg{
		{Key: "c/a", Inner: protocol.DeltaOf(crdt.NewGSet("x", "y"))},
		{Key: "c/b", Inner: protocol.DeltaOf(crdt.NewGSet("z"))},
	})
	got := msgRoundTrip(t, m).(*protocol.StreamMsg)
	if got.Start != 40 || got.End != 47 || len(got.Items) != 2 {
		t.Fatalf("decoded (%d, %d] with %d items", got.Start, got.End, len(got.Items))
	}
	for i, it := range got.Items {
		if it.Key != m.Items[i].Key || !it.Inner.(*protocol.DeltaMsg).Delta.Equal(m.Items[i].Inner.(*protocol.DeltaMsg).Delta) {
			t.Errorf("item %d = %q, want %q", i, it.Key, m.Items[i].Key)
		}
	}
	// An ack is one tag byte and one uvarint watermark.
	ack, _ := codec.EncodeMsg(&protocol.StreamAckMsg{Seq: 47})
	if len(ack) != 2 {
		t.Errorf("ack of seq 47 encodes to %d bytes, want 2", len(ack))
	}
	if got := msgRoundTrip(t, &protocol.StreamAckMsg{Seq: 1 << 40}).(*protocol.StreamAckMsg); got.Seq != 1<<40 {
		t.Errorf("ack seq = %d", got.Seq)
	}
	if _, err := codec.EncodeMsg(protocol.NewStreamMsg(5, 4, nil)); err == nil {
		t.Error("a backwards range must not encode")
	}
	bad := protocol.NewStreamMsg(0, 1, []protocol.ObjectMsg{{Key: "k", Inner: protocol.NewStateMsg(crdt.NewGSet("x"), cost())}})
	if _, err := codec.EncodeMsg(bad); err == nil {
		t.Error("a stream item must carry a DeltaMsg")
	}
}

// TestDecodeStreamHostileInput: a range whose end overflows, a hostile
// item count, and truncations fail without panicking or allocating the
// claimed count.
func TestDecodeStreamHostileInput(t *testing.T) {
	max := binary.AppendUvarint(nil, ^uint64(0))
	for name, data := range map[string][]byte{
		"overflowing range": append(append([]byte{76}, max...), append([]byte{2}, 0)...),
		"hostile count":     append([]byte{76, 0, 1}, binary.AppendUvarint(nil, 1<<60)...),
		"truncated item":    {76, 0, 1, 1, 3, 'a'},
		"truncated ack":     {77},
		"truncated range":   {76, 5},
	} {
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
		var v codec.FrameView
		frame := append([]byte{72, 0, 0, 0, 0, 1, 0}, data...)
		if err := codec.UnpackFrame(frame, 4, &v); err == nil {
			t.Errorf("%s: unpacker accepted it inside a frame", name)
		}
	}
}
