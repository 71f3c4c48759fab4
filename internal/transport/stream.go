package transport

import (
	"sync"

	"crdtsync/internal/protocol"
)

// This file is the store's side of the acknowledged δ-streams
// (protocol.Stream, one per (peer, shard) under EngineAcked): shipping
// the cumulative acks, ordering them against digest advertisements, and
// restarting retransmission after a reconnect.

// minStreamLag is the least a peer may owe acks for on one shard before
// it is cut over to digest repair; the bound is otherwise the peer
// queue's byte budget spread over the shards.
const minStreamLag = 64 << 10

// ackGate orders stream acks against digest advertisements. A tick reads
// each shard's digest under the lock of the visit that ships its δs, and
// its vector rides the tick's last frame. A range applied after that
// read is not in the vector, so its ack must not overtake the vector: a
// peer that saw the ack first would count the stream settled and take
// the stale vector for divergence. Acks produced while a tick runs wait
// here and follow the tick's frames; otherwise they ship at once, so an
// ack never waits for the next tick.
type ackGate struct {
	mu      sync.Mutex
	ticking int
	held    map[string][]protocol.ShardItem
	order   []string
}

// begin marks a tick in progress.
func (g *ackGate) begin() {
	g.mu.Lock()
	g.ticking++
	g.mu.Unlock()
}

// end closes a tick, shipping the acks it held once no tick runs.
func (g *ackGate) end(s *Store) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ticking--; g.ticking > 0 {
		return
	}
	for _, to := range g.order {
		s.shipAcks(to, g.held[to])
		delete(g.held, to)
	}
	g.order = g.order[:0]
}

// send ships one frame's acks to a peer, or holds them while a tick runs.
// The items are copied: the caller's slice is pooled.
func (g *ackGate) send(s *Store, to string, acks []protocol.ShardItem) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ticking == 0 {
		s.shipAcks(to, acks)
		return
	}
	if g.held == nil {
		g.held = make(map[string][]protocol.ShardItem)
	}
	if _, ok := g.held[to]; !ok {
		g.order = append(g.order, to)
	}
	g.held[to] = append(g.held[to], acks...)
}

// shipAcks packs acks into compact frames — a shard index and one
// watermark each — and enqueues them. A frame queued behind another
// plain data frame to the same peer rides it: drain coalescing merges
// the two into one write.
func (s *Store) shipAcks(to string, acks []protocol.ShardItem) {
	res, err := packFrames(acks, nil, nil, s.maxMsgBytes())
	if err != nil {
		panic(err) // acks always encode
	}
	for _, f := range res.frames {
		s.transmit(to, f.data, f.cost, frameAck)
	}
}

// revive restarts retransmission on every δ-stream toward each peer
// whose connection came back since the last tick: whatever the peer left
// unacked goes out on this tick instead of after a backed-off timeout.
func (s *Store) revive() {
	for _, to := range s.neighbors {
		if !s.net.takeRevived(to) {
			continue
		}
		for _, sh := range s.shards {
			if sh.st == nil || !sh.retx.Load() {
				continue
			}
			sh.mu.Lock()
			sh.st.Revive(to)
			sh.dirty.Store(true)
			sh.mu.Unlock()
		}
	}
}
