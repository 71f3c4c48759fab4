package codec

import (
	"fmt"
	"testing"

	"crdtsync/internal/crdt"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// TestResetClearsWholeBackingArrays pins what reset's prefix-only clear
// relies on: after a large frame grows the item arrays and a small frame
// reuses them, Reset leaves no element anywhere in either backing array —
// past len included — referencing frame bytes or a decoded message.
func TestResetClearsWholeBackingArrays(t *testing.T) {
	frame := func(shards []uint32) []byte {
		items := make([]protocol.ShardItem, 0, len(shards))
		for i, sh := range shards {
			st := crdt.NewGSet(fmt.Sprintf("e%d", i))
			items = append(items, protocol.ShardItem{Shard: sh, Msg: protocol.BatchOf([]protocol.ObjectMsg{{
				Key:   fmt.Sprintf("k%d", i),
				Inner: protocol.NewDeltaMsg(st, metrics.Transmission{Messages: 1, Elements: 1}),
			}})})
		}
		data, err := EncodeMsg(protocol.NewShardedMsg(items))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Descending shard order forces the grouping sort, so both arrays
	// grow with the large frame.
	large := make([]uint32, 200)
	for i := range large {
		large[i] = uint32(len(large)-1-i) % 8
	}
	var v FrameView
	for _, data := range [][]byte{frame(large), frame([]uint32{3, 1})} {
		if err := UnpackFrame(data, 8, &v); err != nil {
			t.Fatal(err)
		}
		for _, g := range v.Groups() {
			for i := range g.Items {
				if _, err := g.Items[i].Msg(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if cap(v.items) < len(large) || cap(v.sorted) < len(large) {
		t.Fatalf("arrays did not grow with the large frame: cap %d/%d", cap(v.items), cap(v.sorted))
	}
	v.Reset()
	for name, arr := range map[string][]ItemView{"items": v.items[:cap(v.items)], "sorted": v.sorted[:cap(v.sorted)]} {
		for i, iv := range arr {
			if iv.Key != nil || iv.Payload != nil || iv.msg != nil {
				t.Fatalf("%s[%d] still references the frame after Reset", name, i)
			}
		}
	}
}
