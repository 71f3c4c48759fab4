package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"crdtsync/internal/codec"
)

// DialFunc establishes the outbound connection to one peer: id is the
// peer's identifier, addr its listen address. Fault-injection harnesses
// wrap the default TCP dialer through StoreConfig.Dial to drop, duplicate
// or delay frames at the connection layer.
type DialFunc func(id, addr string) (net.Conn, error)

// defaultDial is the production dialer: plain TCP with a bounded timeout.
func defaultDial(_, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// Write-pipeline tuning. reconnectBase/reconnectMax bound the capped
// exponential backoff between connection attempts to a down peer;
// drainTimeout bounds how long close waits for the per-peer queues to
// flush before force-closing connections and abandoning what remains.
const (
	defaultPeerQueueLen   = 128
	defaultPeerQueueBytes = 8 << 20
	reconnectBase         = 10 * time.Millisecond
	reconnectMax          = 2 * time.Second
	drainTimeout          = time.Second
	// inboundPerPeer is how many accepted connections each configured
	// peer may hold open at once, and, times the number of peers, how
	// many the guests share (see peerNet.accepted).
	inboundPerPeer = 4
)

// queueConfig bounds one peer's outbound queue. Frames vary ~100x in
// size (a digest heartbeat vs a full repair batch), so the queue is
// budgeted in bytes as well as frames: eviction fires when either bound
// is crossed. maxMsg, when positive, lets the writer coalesce queued
// frames to the same peer into one frame up to that size on drain.
type queueConfig struct {
	frames int // 0 = defaultPeerQueueLen
	bytes  int // 0 = defaultPeerQueueBytes
	maxMsg int // 0 = no drain coalescing
}

func (q queueConfig) withDefaults() queueConfig {
	if q.frames <= 0 {
		q.frames = defaultPeerQueueLen
	}
	if q.bytes <= 0 {
		q.bytes = defaultPeerQueueBytes
	}
	return q
}

// Per-peer pipeline connection states, reported by PeerStats.State.
const (
	// PeerConnecting: no usable connection yet — either nothing has been
	// sent to this peer or a dial is in progress.
	PeerConnecting = "connecting"
	// PeerUp: the last dial succeeded and no write has failed since.
	PeerUp = "up"
	// PeerBackoff: the last dial or write failed; the writer is waiting
	// out the capped exponential backoff before the next attempt.
	PeerBackoff = "backoff"
)

// PeerStats counts one outbound peer pipeline's work. Counters are
// cumulative since the store started; State, Queued and QueuedBytes are
// a snapshot.
type PeerStats struct {
	// Enqueued counts frames accepted into this peer's bounded queue;
	// EnqueuedBytes their encoded payload bytes.
	Enqueued      int
	EnqueuedBytes int
	// Dropped counts frames lost on the way to this peer: evicted by the
	// drop-oldest overflow policy while the queue exceeded its frame or
	// byte budget, abandoned after a failed connection attempt or write
	// error, or still queued when the store closed. DroppedBytes is the
	// same ledger in bytes. Acked engines retransmit the lost deltas and
	// digest anti-entropy repairs the rest; under the plain delta engine
	// with digests disabled these frames are gone for good.
	Dropped      int
	DroppedBytes int
	// DroppedOverflow, DroppedDial, DroppedWrite and DroppedClosing split
	// Dropped by reason and always sum to it: evicted by the overflow
	// policy, lost to a failed connection attempt, lost to a failed
	// write, and abandoned (or offered) while the pipeline shut down.
	DroppedOverflow int
	DroppedDial     int
	DroppedWrite    int
	DroppedClosing  int
	// Coalesced counts queued frames merged into an earlier frame to the
	// same peer on drain, incremented only once the merged write lands:
	// their bytes reached the wire minus the saved per-frame headers —
	// only their frame identity disappeared. A coalition whose write
	// fails counts in Dropped instead.
	Coalesced int
	// Reconnects counts successful connection establishments after a
	// failure (the first connect is not a reconnect).
	Reconnects int
	// State is the pipeline's connection state: PeerUp, PeerConnecting
	// or PeerBackoff. Cleared by StoreStats.Add — states from different
	// stores are not additive.
	State string
	// Queued is the queue depth at snapshot time, in frames and bytes.
	Queued      int
	QueuedBytes int
}

// peerConn is one peer's outbound pipeline: a bounded frame queue feeding
// a dedicated writer goroutine that owns the connection, dials it lazily,
// and re-establishes it with capped exponential backoff after failures.
// transmit is a non-blocking enqueue, so a stalled or dead peer can never
// delay frames to healthy peers; when the queue exceeds its frame or byte
// budget the oldest frame is evicted (newest data wins — it subsumes what
// an eventual digest repair would reship anyway).
type peerConn struct {
	id   string
	addr string
	p    *peerNet

	mu         sync.Mutex
	cond       *sync.Cond // signals queue growth and drain start
	queue      [][]byte
	qbytes     int // sum of queued frame lengths
	qcfg       queueConfig
	closed     bool // no further enqueues; writer exits once drained
	conn       net.Conn
	state      string
	backoff    time.Duration
	hadFailure bool // a dial/write failed since the last success
	// attempted is set once the first write attempt has finished. Until
	// then the queue is bounded by bytes only: the frames a store
	// produces while its first dial is in flight — ticks, digests and
	// replies from several goroutines at once — must not evict each
	// other toward a peer that may be perfectly healthy.
	attempted bool
	stats     PeerStats
	// revived marks a reconnect after a failure since the store last
	// asked (takeRevived).
	revived bool
}

// dropReason names why a frame was lost, for the PeerStats split.
type dropReason int

const (
	dropOverflow dropReason = iota
	dropDial
	dropWrite
	dropClosing
)

// dropLocked counts frames lost for one reason. Caller holds pc.mu.
func (pc *peerConn) dropLocked(why dropReason, frames, bytes int) {
	pc.stats.Dropped += frames
	pc.stats.DroppedBytes += bytes
	switch why {
	case dropOverflow:
		pc.stats.DroppedOverflow += frames
	case dropDial:
		pc.stats.DroppedDial += frames
	case dropWrite:
		pc.stats.DroppedWrite += frames
	case dropClosing:
		pc.stats.DroppedClosing += frames
	}
}

// enqueue appends one frame, evicting oldest queued frames while either
// the frame-count cap (once the first write attempt has finished) or the
// byte budget is exceeded — except the frame just enqueued, so one frame
// above the byte budget still ships instead of wedging the pipeline. It
// never blocks: overflow is data loss for the engines or digest
// anti-entropy to repair, not backpressure onto the sync tick.
func (pc *peerConn) enqueue(data []byte) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.stats.Enqueued++
	pc.stats.EnqueuedBytes += len(data)
	if pc.closed {
		pc.dropLocked(dropClosing, 1, len(data))
		return
	}
	pc.queue = append(pc.queue, data)
	pc.qbytes += len(data)
	pc.evictLocked()
	pc.cond.Signal()
}

// evictLocked drops oldest queued frames until the queue is within its
// bounds. Caller holds pc.mu.
func (pc *peerConn) evictLocked() {
	for len(pc.queue) > 1 && ((pc.attempted && len(pc.queue) > pc.qcfg.frames) || pc.qbytes > pc.qcfg.bytes) {
		old := pc.queue[0]
		pc.queue[0] = nil
		pc.queue = pc.queue[1:]
		pc.qbytes -= len(old)
		pc.dropLocked(dropOverflow, 1, len(old))
	}
}

// run is the writer goroutine: it drains the queue — coalescing queued
// frames to this peer into one when they fit the cap — until the pipeline
// is closed and empty, or hard-stopped.
func (pc *peerConn) run() {
	defer pc.p.writers.Done()
	for {
		frame, ok := pc.next()
		if !ok {
			pc.mu.Lock()
			if pc.conn != nil {
				pc.conn.Close()
				pc.conn = nil
			}
			pc.mu.Unlock()
			return
		}
		batch, bytes := pc.coalesceBatch(frame)
		if len(batch) == 1 {
			pc.write(frame, 1, len(frame))
			continue
		}
		if merged, ok := codec.MergeSharded(batch); ok {
			// Coalesced counts only after the write lands: a merged
			// coalition that dies on the way out is Dropped, not both.
			if pc.write(merged, len(batch), bytes) {
				pc.addCoalesced(len(batch) - 1)
			}
			continue
		}
		// Unreachable — every batch member passed CanMergeSharded, the
		// exact predicate MergeSharded applies — but a refusal must ship
		// the popped frames individually, never lose them.
		for _, f := range batch {
			pc.write(f, 1, len(f))
		}
	}
}

// next blocks until a frame is available or the pipeline is done.
func (pc *peerConn) next() ([]byte, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for len(pc.queue) == 0 && !pc.closed {
		pc.cond.Wait()
	}
	if pc.hardStopped() {
		// Shutdown abandons what is still queued.
		pc.dropLocked(dropClosing, len(pc.queue), pc.qbytes)
		clear(pc.queue)
		pc.queue, pc.qbytes = pc.queue[:0], 0
	}
	if len(pc.queue) == 0 {
		return nil, false
	}
	f := pc.queue[0]
	pc.queue[0] = nil
	pc.queue = pc.queue[1:]
	pc.qbytes -= len(f)
	return f, true
}

// coalesceBatch pops the run of queued frames that can merge with frame —
// plain sharded data frames whose summed length stays within the frame
// cap — so the caller can splice them into one frame (one header and one
// syscall instead of k). Digest-carrying frames never merge. The actual
// byte splicing happens outside the queue lock: merging is O(bytes) work
// that must not delay a concurrent transmit's enqueue. Coalescing only
// happens on an established connection — against a down peer each attempt
// must keep costing exactly one queued frame, not a whole merged
// coalition per failed dial. bytes is the enqueued length the batch
// represents: a failed write drops the whole coalition from the
// accounting, not one frame of it.
func (pc *peerConn) coalesceBatch(frame []byte) (batch [][]byte, bytes int) {
	batch, bytes = [][]byte{frame}, len(frame)
	if pc.qcfg.maxMsg <= 0 || !codec.CanMergeSharded(frame) {
		return batch, bytes
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		return batch, bytes
	}
	total := len(frame)
	for len(pc.queue) > 0 && total+len(pc.queue[0]) <= pc.qcfg.maxMsg &&
		codec.CanMergeSharded(pc.queue[0]) {
		next := pc.queue[0]
		pc.queue[0] = nil
		pc.queue = pc.queue[1:]
		pc.qbytes -= len(next)
		batch = append(batch, next)
		total += len(next)
		bytes += len(next)
	}
	return batch, bytes
}

func (pc *peerConn) addCoalesced(n int) {
	pc.mu.Lock()
	pc.stats.Coalesced += n
	pc.mu.Unlock()
}

func (pc *peerConn) hardStopped() bool {
	select {
	case <-pc.p.hardStop:
		return true
	default:
		return false
	}
}

// write ships one (possibly coalesced) frame, establishing the connection
// if needed, and reports whether it landed. A failed dial or write drops
// the frame (counted per peer, same as overflow — frames and bytes name
// the enqueued frames it represents) and backs off before the next
// attempt, so a down peer costs one queued frame per attempt instead of
// wedging the writer on the oldest frame while drop-oldest evicts
// everything newer behind it.
func (pc *peerConn) write(frame []byte, frames, bytes int) bool {
	conn := pc.ensureConn()
	if conn == nil {
		pc.dropFrames(dropDial, frames, bytes)
		return false
	}
	if err := writeFrame(conn, pc.p.id, frame); err != nil {
		pc.disconnect(conn)
		pc.dropFrames(dropWrite, frames, bytes)
		pc.sleepBackoff()
		return false
	}
	pc.markHealthy()
	return true
}

// markHealthy resets the backoff after a successful write — not after a
// successful dial, or a peer whose listener accepts connections that then
// fail every write would redial at the base interval forever and count a
// "reconnect" per attempt.
func (pc *peerConn) markHealthy() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.attempted = true
	pc.backoff = 0
	if pc.hadFailure {
		pc.stats.Reconnects++
		pc.hadFailure = false
		pc.revived = true
	}
}

// ensureConn returns the live connection, dialing if there is none. On
// dial failure it sleeps the backoff and returns nil.
func (pc *peerConn) ensureConn() net.Conn {
	pc.mu.Lock()
	if pc.conn != nil {
		c := pc.conn
		pc.mu.Unlock()
		return c
	}
	pc.state = PeerConnecting
	pc.mu.Unlock()
	c, err := pc.p.dial(pc.id, pc.addr)
	if err != nil {
		pc.sleepBackoff()
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.hardStopped() {
		c.Close()
		return nil
	}
	pc.conn = c
	pc.state = PeerUp
	return c
}

// disconnect tears the connection down after a write error.
func (pc *peerConn) disconnect(conn net.Conn) {
	conn.Close()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == conn {
		pc.conn = nil
	}
}

// dropFrames records a failed attempt's frames as dropped for why. A failed
// first attempt also ends the start-up grace: the backlog it let build
// is trimmed to the frame bound in the same lock hold, so a dead peer
// never holds more than the bounded queue.
func (pc *peerConn) dropFrames(why dropReason, frames, bytes int) {
	pc.mu.Lock()
	pc.dropLocked(why, frames, bytes)
	pc.attempted = true
	pc.evictLocked()
	pc.mu.Unlock()
}

// sleepBackoff waits out the capped exponential backoff after a failure,
// returning early on hard stop. The queue keeps accepting (and, when
// full, drop-oldest-evicting) frames throughout.
func (pc *peerConn) sleepBackoff() {
	pc.mu.Lock()
	if pc.backoff == 0 {
		pc.backoff = reconnectBase
	} else if pc.backoff < reconnectMax {
		pc.backoff *= 2
		if pc.backoff > reconnectMax {
			pc.backoff = reconnectMax
		}
	}
	d := pc.backoff
	pc.state = PeerBackoff
	pc.hadFailure = true
	pc.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-pc.p.hardStop:
	}
}

// snapshot returns the pipeline's counters plus current state and depth.
func (pc *peerConn) snapshot() PeerStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := pc.stats
	s.State = pc.state
	s.Queued = len(pc.queue)
	s.QueuedBytes = pc.qbytes
	return s
}

// peerNet owns a Store's connection plumbing: the listener, one outbound
// write pipeline per peer, accepted inbound connections, and the
// accept/read loops that hand frames to the store. The store supplies a
// deliver callback and keeps its own synchronization loop.
type peerNet struct {
	id    string
	dial  DialFunc
	ln    net.Listener
	peers map[string]*peerConn // fixed at construction, read-only after
	mu    sync.Mutex           // guards accepted, lastConn and rejected
	// accepted holds every open inbound connection. A connection is a
	// guest until its first frame names a configured peer: the guests
	// share maxGuests places, and each configured peer has
	// inboundPerPeer of its own. Over either cap, the oldest connection
	// is closed and counted in rejected — the newest is the live one: a
	// reconnecting peer's, or a configured peer's arriving while idle
	// connections flood the guest places.
	accepted  map[net.Conn]*inbound
	lastConn  uint64
	maxGuests int
	rejected  int
	stopping  chan struct{}
	hardStop  chan struct{}
	stopOnce  sync.Once
	hardOnce  sync.Once
	wg        sync.WaitGroup // accept + read loops
	writers   sync.WaitGroup // peerConn writer goroutines
}

func newPeerNet(id string, peers map[string]string, ln net.Listener, dial DialFunc, qcfg queueConfig) *peerNet {
	if dial == nil {
		dial = defaultDial
	}
	qcfg = qcfg.withDefaults()
	p := &peerNet{
		id:       id,
		dial:     dial,
		ln:       ln,
		peers:    make(map[string]*peerConn, len(peers)),
		accepted: make(map[net.Conn]*inbound),
		// Every peer's connection is a guest until its first frame
		// arrives; a few ids outside the configured peers (tools, tests)
		// stay guests. Anything beyond is a connection flood.
		maxGuests: inboundPerPeer * max(len(peers), 1),
		stopping:  make(chan struct{}),
		hardStop:  make(chan struct{}),
	}
	for pid, addr := range peers {
		pc := &peerConn{id: pid, addr: addr, p: p, qcfg: qcfg, state: PeerConnecting}
		pc.cond = sync.NewCond(&pc.mu)
		p.peers[pid] = pc
	}
	return p
}

// start launches the accept loop and one writer goroutine per peer;
// deliver runs for every inbound frame, on the connection's read
// goroutine, with the raw encoded message bytes — owners unpack or decode
// as their hot path requires. The bytes alias the connection's reused
// read buffer and are valid only for the duration of the call; a non-nil
// error drops the connection (a corrupt peer).
func (p *peerNet) start(deliver func(from string, frame []byte) error) {
	p.wg.Add(1)
	go p.acceptLoop(deliver)
	for _, pc := range p.peers {
		p.writers.Add(1)
		go pc.run()
	}
}

func (p *peerNet) addr() string { return p.ln.Addr().String() }

// errClosed reports a transmit attempted after close.
var errClosed = errors.New("transport: peer network closed")

// transmit enqueues one frame onto the peer's write pipeline. It never
// blocks on the network: the dedicated writer goroutine dials and writes,
// so a stalled peer delays only its own queue. When that queue is full
// the oldest queued frame is evicted and counted (PeerStats.Dropped);
// callers decide whether the protocol resends (acked engines) or digest
// anti-entropy repairs the loss.
func (p *peerNet) transmit(to string, data []byte) error {
	select {
	case <-p.stopping:
		// A sync tick racing close() must not enqueue frames the
		// draining writers will never pick up.
		return errClosed
	default:
	}
	pc, ok := p.peers[to]
	if !ok {
		return fmt.Errorf("transport: unknown peer %s", to)
	}
	pc.enqueue(data)
	return nil
}

// takeRevived reports, and clears, whether the peer's connection came
// back after a failure since the last call.
func (p *peerNet) takeRevived(to string) bool {
	pc := p.peers[to]
	if pc == nil {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	revived := pc.revived
	pc.revived = false
	return revived
}

// rejectedConns returns how many inbound connections the cap closed.
func (p *peerNet) rejectedConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rejected
}

// peerStats snapshots every peer pipeline's counters and state.
func (p *peerNet) peerStats() map[string]PeerStats {
	out := make(map[string]PeerStats, len(p.peers))
	for id, pc := range p.peers {
		out[id] = pc.snapshot()
	}
	return out
}

func (p *peerNet) acceptLoop(deliver func(from string, frame []byte) error) {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.stopping:
				return
			default:
				continue
			}
		}
		p.mu.Lock()
		p.lastConn++
		p.accepted[conn] = &inbound{seq: p.lastConn}
		p.trimLocked("", p.maxGuests)
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn, deliver)
	}
}

func (p *peerNet) readLoop(conn net.Conn, deliver func(from string, frame []byte) error) {
	defer p.wg.Done()
	defer func() {
		conn.Close()
		p.mu.Lock()
		delete(p.accepted, conn)
		p.mu.Unlock()
	}()
	// One read buffer across frames: deliver is synchronous and the
	// decoders copy whatever outlives the call, so the next frame may
	// safely overwrite the previous one's bytes. The connection speaks
	// for the sender named by its first frame; a later frame naming
	// anyone else is a spoof, and the connection is dropped.
	var buf []byte
	var sender string
	for first := true; ; first = false {
		from, data, err := readFrameInto(conn, &buf)
		if err != nil {
			return
		}
		if first {
			sender = string(from)
			p.bind(conn, sender)
		} else if string(from) != sender {
			return
		}
		if err := deliver(sender, data); err != nil {
			return // corrupt peer; drop the connection
		}
		if cap(buf) > repairChunkBytes {
			// Steady-state frames are far smaller than a repair chunk: a
			// one-off large frame must not pin its buffer (up to the
			// 64 MiB frame cap) for the connection's lifetime.
			buf = nil
		}
	}
}

// inbound is one accepted connection's place under the caps: its accept
// order, and the configured peer its first frame named ("" for a guest).
type inbound struct {
	seq    uint64
	peer   string
	closed bool
}

// bind moves a connection whose first frame names a configured peer out
// of the guest places into that peer's own.
func (p *peerNet) bind(conn net.Conn, id string) {
	if _, ok := p.peers[id]; !ok {
		return
	}
	p.mu.Lock()
	if in := p.accepted[conn]; in != nil && !in.closed {
		in.peer = id
		p.trimLocked(id, inboundPerPeer)
	}
	p.mu.Unlock()
}

// trimLocked closes the oldest of peer's open connections ("" for the
// guests) while they number more than limit. Caller holds p.mu.
func (p *peerNet) trimLocked(peer string, limit int) {
	for {
		var oldest net.Conn
		n := 0
		for c, in := range p.accepted {
			if in.closed || in.peer != peer {
				continue
			}
			if n++; oldest == nil || in.seq < p.accepted[oldest].seq {
				oldest = c
			}
		}
		if n <= limit {
			return
		}
		p.accepted[oldest].closed = true
		p.rejected++
		oldest.Close()
	}
}

// close stops the accept loop, drains the write pipelines, and closes
// every connection. The drain is graceful but bounded: writers get
// drainTimeout to flush queued frames to reachable peers, then the hard
// stop unblocks any writer stuck dialing, backing off, or writing to a
// stalled peer, and the rest of the queues are abandoned. Accepted
// connections park their readLoops in blocking reads; closing them here
// is what lets wg.Wait return. Idempotent.
func (p *peerNet) close() error {
	p.stopOnce.Do(func() { close(p.stopping) })
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	for _, pc := range p.peers {
		pc.mu.Lock()
		pc.closed = true
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
	drained := make(chan struct{})
	go func() { p.writers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	p.hardOnce.Do(func() { close(p.hardStop) })
	for _, pc := range p.peers {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close() // unblocks a writer stuck mid-write
		}
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
	p.mu.Lock()
	for c := range p.accepted {
		c.Close()
	}
	p.mu.Unlock()
	// Second bounded wait, not writers.Wait(): a writer can still be
	// parked inside a blocking Dial hook, which no channel of ours can
	// interrupt. Close must not inherit the dialer's timeout — such a
	// writer observes the hard stop as soon as the dial returns, closes
	// whatever it dialed, and exits without touching shared state.
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	p.wg.Wait()
	return err
}
