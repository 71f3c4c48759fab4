package protocol_test

import (
	"fmt"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// sent is one captured emission.
type sent struct {
	to string
	m  *protocol.StreamMsg
}

func newStream(opts protocol.StreamOptions) *protocol.Stream {
	return protocol.NewStream(protocol.Config{ID: "a", Neighbors: []string{"b", "c"}}, true, true,
		func(string) workload.Datatype { return workload.GSetType{} }, opts)
}

func syncAt(s *protocol.Stream, now time.Time) []sent {
	var out []sent
	s.SyncAt(now, 10*time.Millisecond, func(to string, m protocol.Msg) { out = append(out, sent{to, m.(*protocol.StreamMsg)}) })
	return out
}

// TestStreamRangesAndCumulativeAcks: one range per neighbour carries the
// per-key join of every entry since the last send, and the buffer drains
// only when every neighbour has acked.
func TestStreamRangesAndCumulativeAcks(t *testing.T) {
	s := newStream(protocol.StreamOptions{})
	now := time.Now()
	s.LocalOp(workload.Add("k", "x"))
	s.LocalOp(workload.Add("k", "y"))
	out := syncAt(s, now)
	if len(out) != 2 {
		t.Fatalf("%d emissions, want one per neighbour", len(out))
	}
	for _, e := range out {
		if e.m.Start != 0 || e.m.End != 2 || len(e.m.Items) != 1 {
			t.Fatalf("to %s: (%d, %d] with %d items, want (0, 2] with 1", e.to, e.m.Start, e.m.End, len(e.m.Items))
		}
		if g := e.m.Items[0].Inner.(*protocol.DeltaMsg).Delta.(*crdt.GSet); !g.Contains("x") || !g.Contains("y") {
			t.Fatalf("joined δ = %v", g)
		}
	}
	if got := syncAt(s, now); len(got) != 0 {
		t.Fatalf("resent %d ranges before the timeout", len(got))
	}
	if s.Status("b") != protocol.StreamUnsettled {
		t.Fatal("unacked stream reported settled")
	}
	s.Ack("b", 2, now)
	if s.Memory().BufferBytes == 0 {
		t.Fatal("buffer pruned before c acked")
	}
	if s.Status("b") != protocol.StreamSettled {
		t.Fatal("acked stream reported unsettled")
	}
	s.Ack("c", 2, now)
	if m := s.Memory(); m.BufferBytes != 0 || s.Outstanding() {
		t.Fatalf("buffer = %d, outstanding = %v after every ack", m.BufferBytes, s.Outstanding())
	}
}

// TestStreamBackPropagation: a δ from b goes to c only, and b's
// watermark-only ack is not needed to prune it.
func TestStreamBackPropagation(t *testing.T) {
	s := newStream(protocol.StreamOptions{})
	now := time.Now()
	if !s.Apply("b", []byte("k"), crdt.NewGSet("x")) {
		t.Fatal("inflating δ not applied")
	}
	if s.Apply("b", []byte("k"), crdt.NewGSet("x")) {
		t.Fatal("redundant δ applied again")
	}
	out := syncAt(s, now)
	if len(out) != 1 || out[0].to != "c" {
		t.Fatalf("emissions = %+v, want one to c", out)
	}
	s.Ack("c", out[0].m.End, now)
	if s.Memory().BufferBytes != 0 {
		t.Fatal("entry from b still buffered after c acked")
	}
}

// TestStreamRetransmitsAfterTimeout: an unacked range is re-sent from
// the acked watermark once the timeout expires, and the timeout backs
// off.
func TestStreamRetransmitsAfterTimeout(t *testing.T) {
	s := newStream(protocol.StreamOptions{})
	now := time.Now()
	s.LocalOp(workload.Add("k", "x"))
	syncAt(s, now)
	s.Ack("b", 1, now.Add(time.Millisecond)) // b samples an RTT; c stays silent
	s.LocalOp(workload.Add("k2", "y"))
	out := syncAt(s, now.Add(2*time.Millisecond))
	for _, e := range out {
		if e.m.Start != 1 {
			t.Fatalf("to %s: fresh range starts at %d, want 1", e.to, e.m.Start)
		}
	}
	out = syncAt(s, now.Add(2*time.Second))
	if len(out) != 2 {
		t.Fatalf("%d ranges after the timeout, want b's and c's", len(out))
	}
	for _, e := range out {
		if e.to == "c" && (e.m.Start != 0 || e.m.End != 2 || len(e.m.Items) != 2) {
			t.Fatalf("c's retransmission = (%d, %d] with %d items, want (0, 2] with 2", e.m.Start, e.m.End, len(e.m.Items))
		}
	}
	for _, e := range syncAt(s, now.Add(3*time.Second)) {
		if e.to == "c" {
			t.Fatal("c's backed-off timeout fired again after 1s")
		}
	}
}

// TestStreamReceiveWatermark: a range from above the watermark —
// applied, not acknowledged — breaks the stream until the retransmission
// refills the watermark and a matching digest mends it.
func TestStreamReceiveWatermark(t *testing.T) {
	s := newStream(protocol.StreamOptions{})
	if wm, ok := s.Received("b", 0, 4); !ok || wm != 4 {
		t.Fatalf("in-order range: watermark %d, %v", wm, ok)
	}
	if wm, _ := s.Received("b", 6, 9); wm != 4 || s.Status("b") != protocol.StreamBroken {
		t.Fatalf("gap: watermark %d, status %d", wm, s.Status("b"))
	}
	if wm, _ := s.Received("b", 4, 9); wm != 9 || s.Status("b") != protocol.StreamBroken {
		t.Fatalf("refill: watermark %d, status %d", wm, s.Status("b"))
	}
	s.Mend("b")
	if s.Status("b") != protocol.StreamSettled {
		t.Fatalf("mended: status %d", s.Status("b"))
	}
	if _, ok := s.Received("stranger", 0, 1); ok {
		t.Fatal("a non-neighbour's range was acknowledged")
	}
}

// TestStreamRewinds: an ack below the acked watermark (the peer lost
// acked data) goes back to it; an ack above anything sent (this store's
// seqs rewound) jumps past it. Both break the stream until mended.
func TestStreamRewinds(t *testing.T) {
	s := newStream(protocol.StreamOptions{})
	now := time.Now()
	for _, e := range []string{"x", "y", "z"} {
		s.LocalOp(workload.Add("k-"+e, e))
	}
	syncAt(s, now)
	s.Ack("b", 3, now)
	s.Ack("c", 3, now)
	s.LocalOp(workload.Add("k-w", "w"))
	s.Ack("b", 0, now) // b restarted
	if s.Status("b") != protocol.StreamBroken {
		t.Fatal("rewound peer not broken")
	}
	for _, e := range syncAt(s, now) {
		if e.to == "b" && (e.m.Start != 0 || e.m.End != 4) {
			t.Fatalf("b resumes at (%d, %d], want (0, 4]", e.m.Start, e.m.End)
		}
	}
	s.Ack("c", 500, now) // c remembers seqs from this store's previous life
	s.LocalOp(workload.Add("k-v", "v"))
	for _, e := range syncAt(s, now) {
		if e.to == "c" && e.m.Start != 500 {
			t.Fatalf("c resumes at %d, want 500", e.m.Start)
		}
	}
	s.Mend("b")
	s.Mend("c")
	if s.Broken() {
		t.Fatal("mended streams still broken")
	}
	s.Ack("c", ^uint64(0), now) // hostile: would wrap the seq space
	if s.Broken() {
		t.Fatal("an ack near 2^64 was adopted")
	}
}

// TestStreamCutOverAndChunks: a neighbour that leaves more than MaxLag
// of shipped δs unacked is cut over (the buffer drops what it owed)
// while an acking one is not, and long ranges split into consecutive
// chunks.
func TestStreamCutOverAndChunks(t *testing.T) {
	s := newStream(protocol.StreamOptions{Chunk: 64, MaxLag: 1 << 10})
	now := time.Now()
	for i := 0; i < 20; i++ {
		s.LocalOp(workload.Add("k", string(rune('a'+i))+"-element"))
	}
	out := syncAt(s, now)
	next := map[string]uint64{}
	for _, e := range out {
		if e.m.Start != next[e.to] {
			t.Fatalf("to %s: chunk starts at %d, want %d", e.to, e.m.Start, next[e.to])
		}
		next[e.to] = e.m.End
	}
	if len(out) <= 2 || next["b"] != 20 || next["c"] != 20 {
		t.Fatalf("%d chunks ending at %v, want several per neighbour ending at 20", len(out), next)
	}
	s.Ack("b", 20, now)
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 50; i++ {
			s.LocalOp(workload.Add("k", "a-longer-element-to-fill-the-lag-"+string(rune('a'+i%26))+string(rune('a'+tick))))
		}
		for _, e := range syncAt(s, now) {
			if e.to == "b" {
				s.Ack("b", e.m.End, now)
			}
		}
	}
	if s.Status("c") != protocol.StreamBroken || s.Status("b") == protocol.StreamBroken {
		t.Fatalf("status b = %d, c = %d; want only the silent c cut over", s.Status("b"), s.Status("c"))
	}
	if got := s.Memory().BufferBytes; got > 1<<10 {
		t.Fatalf("buffer holds %d bytes after the cut-over, want ≤ %d", got, 1<<10)
	}
}

// TestStreamCutOverNotice: a cut-over neighbour is told with an empty
// range from the gap, re-sent on the retransmission timer until it is
// acknowledged, and nothing else ships meanwhile. The receiver breaks
// its side and resumes from the gap; acks from before the notice are
// ignored, and the first at the gap resumes the stream there.
func TestStreamCutOverNotice(t *testing.T) {
	gset := func(string) workload.Datatype { return workload.GSetType{} }
	a := protocol.NewStream(protocol.Config{ID: "a", Neighbors: []string{"b"}}, true, true, gset, protocol.StreamOptions{MaxLag: 256})
	b := protocol.NewStream(protocol.Config{ID: "b", Neighbors: []string{"a"}}, true, true, gset, protocol.StreamOptions{})
	now := time.Now()
	for i := 0; i < 20; i++ {
		a.LocalOp(workload.Add(fmt.Sprintf("k%02d", i), "an-element-of-some-length"))
	}
	syncAt(a, now) // shipped and lost
	out := syncAt(a, now)
	if len(out) != 1 || out[0].m.Start != 20 || out[0].m.End != 20 || len(out[0].m.Items) != 0 {
		t.Fatalf("cut-over emitted %+v, want one empty range (20, 20]", out)
	}
	if a.Status("b") != protocol.StreamBroken || a.Memory().BufferBytes != 0 {
		t.Fatalf("after the cut-over: status %d, buffer %d", a.Status("b"), a.Memory().BufferBytes)
	}
	a.LocalOp(workload.Add("k-after", "x"))
	if got := syncAt(a, now.Add(time.Millisecond)); len(got) != 0 {
		t.Fatalf("shipped %+v before the notice was acknowledged", got)
	}
	if got := syncAt(a, now.Add(3*time.Second)); len(got) != 1 || got[0].m.Start != 20 || got[0].m.End != 20 {
		t.Fatalf("timer expiry emitted %+v, want the notice again", got)
	}
	if wm, _ := b.Received("a", 20, 20); wm != 20 || b.Status("a") != protocol.StreamBroken {
		t.Fatalf("receiver after the notice: watermark %d, status %d; want 20, broken", wm, b.Status("a"))
	}
	a.Ack("b", 0, now) // from before the notice
	if got := syncAt(a, now.Add(3*time.Second)); len(got) != 0 {
		t.Fatalf("a stale ack resumed the stream: %+v", got)
	}
	a.Ack("b", 20, now)
	got := syncAt(a, now.Add(3*time.Second))
	if len(got) != 1 || got[0].m.Start != 20 || got[0].m.End != 21 || len(got[0].m.Items) != 1 {
		t.Fatalf("resumed stream emitted %+v, want (20, 21] with k-after", got)
	}
	if wm, _ := b.Received("a", 20, 21); wm != 21 {
		t.Fatalf("receiver watermark %d after the resumed range, want 21", wm)
	}
}
