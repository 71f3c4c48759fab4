package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// eventually polls cond until it holds, failing the test after timeout.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAckedSustainedWritesStartNoRepair pins the stream-exact repair
// hold: on a lossless loopback cluster every digest mismatch comes from
// δs still in flight, so three acked replicas under seconds of writes to
// every shard — mismatching at nearly every advertisement — must start
// no repair at all. A hold bounded by RepairTimeout expires under such
// writes and pulls shards that were never diverged.
func TestAckedSustainedWritesStartNoRepair(t *testing.T) {
	const keys = 200
	stores, err := LoopbackCluster(3, StoreConfig{
		ID:            "s",
		Shards:        8,
		Factory:       protocol.NewDeltaAcked(true, true),
		ObjType:       func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:     20 * time.Millisecond,
		DigestEvery:   2,
		RepairTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	stop := time.Now().Add(3 * time.Second)
	for i := 0; time.Now().Before(stop); i++ {
		for j, st := range stores {
			st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("k%03d", (7*i+j)%keys), N: 1})
		}
		time.Sleep(time.Millisecond)
	}
	if err := WaitConverged(stores, keys, 20*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, st := range stores {
		s := st.Stats()
		held += s.HeldRepairs
		if s.WantShards+s.TreeRounds != 0 {
			t.Errorf("%s started repair on a lossless link: WantShards = %d, TreeRounds = %d (held %d)",
				st.ID(), s.WantShards, s.TreeRounds, s.HeldRepairs)
		}
	}
	if held == 0 {
		t.Error("no mismatch was ever held: the writes never overlapped an advertisement")
	}
}

// TestAckedDeadPeerBufferBoundedThenRepaired pins the cut-over: while
// its only peer is down, a store keeps writing well past the lag bound
// and its δ-buffer stays bounded; when the peer comes up empty, the
// cut-over stream is repaired by digest anti-entropy and both converge
// exactly.
func TestAckedDeadPeerBufferBoundedThenRepaired(t *testing.T) {
	reserved := listenOn(t, "127.0.0.1:0")
	addrB := reserved.Addr().String()
	reserved.Close()
	lnA := listenOn(t, "127.0.0.1:0")
	const shards = 4
	cfg := func(id, peer, addr string, ln net.Listener) StoreConfig {
		return StoreConfig{
			ID:          id,
			Listener:    ln,
			Peers:       map[string]string{peer: addr},
			Shards:      shards,
			Factory:     protocol.NewDeltaAcked(true, true),
			ObjType:     func(string) workload.Datatype { return workload.GSetType{} },
			SyncEvery:   5 * time.Millisecond,
			DigestEvery: 2,
			// A small queue budget puts the per-shard lag bound at its
			// floor, minStreamLag.
			PeerQueueBytes: 64 << 10,
		}
	}
	a, err := StartStore(cfg("a", "b", addrB, lnA))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })

	// Write ≈1.3 MiB of δs, a few ticks' worth at a time, while b is
	// down; an unbounded buffer would hold all of it.
	const keys = 12000
	pad := strings.Repeat("x", 100)
	bound := shards * (minStreamLag + 16<<10)
	peak := 0
	for k := 0; k < keys; k++ {
		a.Update(workload.Add(fmt.Sprintf("k%05d", k), pad))
		if k%100 == 99 {
			time.Sleep(5 * time.Millisecond)
			peak = max(peak, a.Memory().BufferBytes)
		}
	}
	if peak > bound {
		t.Fatalf("δ-buffer toward a dead peer peaked at %d bytes, want ≤ %d", peak, bound)
	}
	if peak == 0 {
		t.Fatal("δ-buffer never held anything: the peer was not owed the writes")
	}

	b, err := StartStore(cfg("b", "a", lnA.Addr().String(), listenOn(t, addrB)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := WaitConverged([]*Store{a, b}, keys, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.WantShards+s.TreeRounds == 0 {
		t.Errorf("the returning peer converged without repair: %+v", s)
	}
	eventually(t, 10*time.Second, "δ-buffer drains once the peer acks", func() bool {
		return a.Memory().BufferBytes == 0
	})
}

// TestAckedCutOverRepairedUnderSustainedWrites: δs a cut-over dropped
// are never re-sent, so only repair restores them. The store that lost
// them keeps writing to the shard, so every digest it compares finds the
// shard dirty or its own stream owed acks; the cut-over notice must
// still break its side of the stream, and a broken stream's hold must
// stay bounded by RepairTimeout.
func TestAckedCutOverRepairedUnderSustainedWrites(t *testing.T) {
	f0 := NewFault(5)
	f0.SetDropRate(1)
	cfg := repairPairConfig()
	cfg.Factory = protocol.NewDeltaAcked(true, true)
	cfg.RepairTimeout = 200 * time.Millisecond
	cfg.PeerQueueBytes = 64 << 10 // puts the lag bound at minStreamLag
	stores := startFaultyPair(t, cfg, [2]*Fault{f0, nil})
	s0, s1 := stores[0], stores[1]

	const lost = 100
	pad := strings.Repeat("x", 1<<10)
	for k := 0; k < lost; k++ {
		s0.Update(workload.Add(fmt.Sprintf("lost-%03d", k), pad))
	}
	s0.SyncNow() // ships into the black hole
	s0.SyncNow() // cuts s1 over, dropping the δs
	if b := s0.Memory().BufferBytes; b != 0 {
		t.Fatalf("s1 not cut over: %d bytes still buffered", b)
	}
	drainInto(t, s0)
	f0.SetDropRate(0)

	deadline := time.Now().Add(5 * time.Second)
	for i := 0; s1.Get(fmt.Sprintf("lost-%03d", lost-1)) == nil; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("cut-over δs not repaired within 5s of sustained writes: %+v", s1.Stats())
		}
		s1.SyncNow()
		s1.Update(workload.Add(fmt.Sprintf("w%06d", i), "v"))
		s0.SyncNow()
		time.Sleep(20 * time.Millisecond)
	}
	for k := 0; k < lost; k++ {
		if s1.Get(fmt.Sprintf("lost-%03d", k)) == nil {
			t.Fatalf("lost-%03d not repaired", k)
		}
	}
}

// newTestPeerNet starts a one-peer pipeline to "b" with the given dialer
// and queue bounds, delivering nothing.
func newTestPeerNet(t *testing.T, dial DialFunc, q queueConfig) *peerNet {
	t.Helper()
	p := newPeerNet("a", map[string]string{"b": "127.0.0.1:1"}, listenOn(t, "127.0.0.1:0"), dial, q)
	p.start(func(string, []byte) error { return nil })
	return p
}

// checkDropSplit asserts the drop reasons sum to Dropped.
func checkDropSplit(t *testing.T, ps PeerStats) {
	t.Helper()
	if sum := ps.DroppedOverflow + ps.DroppedDial + ps.DroppedWrite + ps.DroppedClosing; sum != ps.Dropped {
		t.Fatalf("drop reasons sum to %d, Dropped = %d: %+v", sum, ps.Dropped, ps)
	}
}

// TestDropReasonOverflow: frames evicted from the over-budget queue of a
// connected but stalled peer count as overflow.
func TestDropReasonOverflow(t *testing.T) {
	c1, c2 := net.Pipe() // nobody reads c2: the first write stalls
	p := newTestPeerNet(t, func(string, string) (net.Conn, error) {
		return c1, nil
	}, queueConfig{bytes: 100})
	t.Cleanup(func() { c2.Close(); p.close() })
	frame := make([]byte, 40)
	p.transmit("b", frame) // dials, then stalls writing
	eventually(t, 5*time.Second, "connected", func() bool { return p.peerStats()["b"].State == PeerUp })
	for i := 0; i < 40; i++ {
		if err := p.transmit("b", frame); err != nil {
			t.Fatal(err)
		}
	}
	ps := p.peerStats()["b"]
	checkDropSplit(t, ps)
	if ps.DroppedOverflow == 0 || ps.Dropped != ps.DroppedOverflow {
		t.Fatalf("want only overflow drops, got %+v", ps)
	}
}

// TestDropReasonDial: a peer that refuses every connection loses one
// frame per attempt, counted as dial failures.
func TestDropReasonDial(t *testing.T) {
	p := newTestPeerNet(t, func(string, string) (net.Conn, error) {
		return nil, errors.New("refused")
	}, queueConfig{})
	t.Cleanup(func() { p.close() })
	for i := 0; i < 3; i++ {
		p.transmit("b", []byte{1, 2, 3})
	}
	eventually(t, 5*time.Second, "three dial drops", func() bool { return p.peerStats()["b"].Dropped == 3 })
	ps := p.peerStats()["b"]
	checkDropSplit(t, ps)
	if ps.DroppedDial != 3 {
		t.Fatalf("want 3 dial drops, got %+v", ps)
	}
}

// TestDropReasonWrite: a connection whose writes fail loses its frames
// as write failures.
func TestDropReasonWrite(t *testing.T) {
	p := newTestPeerNet(t, func(string, string) (net.Conn, error) {
		c1, c2 := net.Pipe()
		c2.Close()
		return c1, nil
	}, queueConfig{})
	t.Cleanup(func() { p.close() })
	for i := 0; i < 3; i++ {
		p.transmit("b", []byte{1, 2, 3})
	}
	eventually(t, 5*time.Second, "three write drops", func() bool { return p.peerStats()["b"].Dropped == 3 })
	ps := p.peerStats()["b"]
	checkDropSplit(t, ps)
	if ps.DroppedWrite != 3 {
		t.Fatalf("want 3 write drops, got %+v", ps)
	}
}

// TestDropReasonClosing: frames still queued when the pipeline is
// hard-stopped count as closing drops.
func TestDropReasonClosing(t *testing.T) {
	release := make(chan struct{})
	p := newTestPeerNet(t, func(string, string) (net.Conn, error) {
		<-release
		return nil, io.EOF
	}, queueConfig{})
	for i := 0; i < 3; i++ {
		p.transmit("b", []byte{1, 2, 3})
	}
	// The writer is parked in the dial: close drains nothing, hard-stops,
	// and returns; the dial then fails and the writer abandons the rest.
	p.close()
	close(release)
	p.writers.Wait()
	ps := p.peerStats()["b"]
	checkDropSplit(t, ps)
	if ps.DroppedClosing != 2 || ps.DroppedDial != 1 {
		t.Fatalf("want 2 closing drops after 1 dial drop, got %+v", ps)
	}
}

// TestInboundConnectionCap is a hostile-peer test: a flood of idle raw
// connections beyond the guest places closes the oldest of them at once
// and counts them, and it cannot lock out a configured peer: the peer's
// connection takes a place from the flood, and once its first frame has
// named the peer, further flooding leaves it alone.
func TestInboundConnectionCap(t *testing.T) {
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"p1": "127.0.0.1:1"},
		Factory:    protocol.NewDeltaBPRR(),
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	dial := func() net.Conn {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	isOpen := func(c net.Conn) bool {
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		var b [1]byte
		_, err := c.Read(b[:])
		return err != io.EOF
	}
	const extra = 3
	limit := inboundPerPeer * 1
	var flood []net.Conn
	for i := 0; i < limit+extra; i++ {
		flood = append(flood, dial())
		// Accept order decides which are oldest.
		eventually(t, 5*time.Second, "accepted", func() bool { return s.Stats().RejectedConns == max(0, i+1-limit) })
	}
	for i, c := range flood {
		if open, want := isOpen(c), i >= extra; open != want {
			t.Fatalf("flood connection %d: open = %v, want %v (only the oldest %d closed)", i, open, want, extra)
		}
	}

	// The width mismatch makes each frame's delivery visible in Stats.
	adv := encodeFrame(t, protocol.NewDigestMsg(make([]uint64, len(s.shards)+1), nil,
		protocol.DigestCost(make([]uint64, len(s.shards)+1), nil)))
	peer := dial()
	if err := writeFrame(peer, "p1", adv); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, "p1's frame delivered while the flood holds the cap", func() bool {
		return s.Stats().DigestShardMismatch == 1
	})
	// The peer's connection took one guest place from the flood, then
	// left the guests for its own: limit-1 flood connections remain, and
	// limit+1 more push limit of them out.
	for i := 0; i < limit+1; i++ {
		flood = append(flood, dial())
	}
	eventually(t, 5*time.Second, "the second flood trimmed", func() bool {
		return s.Stats().RejectedConns == extra+1+limit
	})
	if !isOpen(peer) {
		t.Fatal("a flood closed the configured peer's connection")
	}
	if err := writeFrame(peer, "p1", adv); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, "p1's second frame delivered", func() bool {
		return s.Stats().DigestShardMismatch == 2
	})
}
