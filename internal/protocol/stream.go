package protocol

import (
	"sort"
	"time"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// This file is the store's acknowledged δ-stream: one per (peer, shard),
// after the anti-entropy algorithm of Almeida, Shoker and Baquero
// ("Delta State Replicated Data Types", JPDC 2018, Algorithm 2). A shard
// keeps one seq-indexed δ-buffer for all of its keys and one pair of
// watermarks per neighbour, instead of the per-object buffers, seq lists
// and per-entry ack sets of deltaAcked:
//
//   - every buffered δ (a local mutation, or the strictly inflating part
//     of a received one) takes the shard's next sequence number;
//   - a sync step ships each neighbour the per-key join of the entries in
//     (sent, head] as StreamMsg ranges, skipping entries that came from
//     that neighbour (BP);
//   - the receiver answers with one cumulative StreamAckMsg per touched
//     shard: the highest seq up to which it has received every range;
//   - entries are dropped once every neighbour that needs them has acked
//     them, and unacked ranges are re-sent only when the neighbour's
//     retransmission timeout expires (RFC 6298: SRTT, RTTVAR, exponential
//     backoff).
//
// A neighbour that falls more than a bound behind is cut over to the
// store's digest repair, which bounds the buffer even toward a dead peer.
// The cut-over drops what the neighbour was owed, so the stream tells it:
// an empty range (gap, gap], re-sent on the retransmission timer until
// the neighbour acknowledges it, breaks the neighbour's side of the
// stream too and moves its receive watermark past the gap.

// StreamMsg is one range of a (peer, shard) δ-stream: the joined per-key
// δs of the sender's buffer entries with seqs in (Start, End], minus the
// entries the receiver sent itself. Items carry DeltaMsgs; on the wire
// each is just (key, state) — the range is the only metadata.
type StreamMsg struct {
	Start, End uint64
	Items      []ObjectMsg
	cost       metrics.Transmission
}

// Kind implements Msg.
func (m *StreamMsg) Kind() string { return "stream" }

// Cost implements Msg.
func (m *StreamMsg) Cost() metrics.Transmission { return m.cost }

// NewStreamMsg builds a StreamMsg with the standard accounting: elements
// and payload summed from the items, 16 bytes of range metadata plus the
// keys. The accounting is derived, not carried on the wire.
func NewStreamMsg(start, end uint64, items []ObjectMsg) *StreamMsg {
	cost := metrics.Transmission{Messages: 1, MetadataBytes: 16}
	for _, it := range items {
		ic := it.Inner.Cost()
		cost.Elements += ic.Elements
		cost.PayloadBytes += ic.PayloadBytes
		cost.MetadataBytes += len(it.Key)
	}
	return &StreamMsg{Start: start, End: end, Items: items, cost: cost}
}

// StreamAckMsg acknowledges a (peer, shard) δ-stream cumulatively: the
// sender of the ack has received every range up to Seq.
type StreamAckMsg struct {
	Seq uint64
}

// Kind implements Msg.
func (m *StreamAckMsg) Kind() string { return "stream-ack" }

// Cost implements Msg: one 8-byte watermark of metadata.
func (m *StreamAckMsg) Cost() metrics.Transmission {
	return metrics.Transmission{Messages: 1, MetadataBytes: 8}
}

// DeltaOf wraps one object's δ as a DeltaMsg with the standard
// accounting: the form a StreamMsg item takes.
func DeltaOf(d lattice.State) *DeltaMsg {
	return &DeltaMsg{Delta: d, cost: stateCost(d, 0)}
}

// Retransmission timing (RFC 6298). Before a neighbour's first round-trip
// sample the timeout is initialRTO; afterwards SRTT + max(G, 4·RTTVAR),
// never below minRTO, plus one sync period — retransmission is only
// checked on ticks — doubled per consecutive expiry up to maxBackoff
// times.
const (
	initialRTO  = time.Second
	minRTO      = 200 * time.Millisecond
	granularity = time.Millisecond
	maxBackoff  = 6
)

// StreamOptions tunes one shard's δ-stream engine.
type StreamOptions struct {
	// Chunk caps the payload bytes of one emitted StreamMsg; a longer
	// range is split into consecutive sub-ranges.
	Chunk int
	// MaxLag is how many bytes of δs one neighbour may owe acks for
	// before it is cut over to digest repair.
	MaxLag int
}

// StreamStatus classifies one (peer, shard) stream for the store's
// repair hold.
type StreamStatus uint8

const (
	// StreamSettled: nothing is owed in either direction; a digest
	// mismatch is divergence.
	StreamSettled StreamStatus = iota
	// StreamUnsettled: δs owed to the peer are unacked. Retransmission
	// delivers them, so a mismatch may be held without a time bound.
	StreamUnsettled
	// StreamBroken: the stream may have lost data since the peer's
	// digest last matched — a range arrived from above the receive
	// watermark, the peer's or this store's seqs rewound, or the peer
	// was cut over. Retransmission may not close the difference; repair
	// does.
	StreamBroken
)

// streamEntry is one buffered δ. origin is the neighbour index it came
// from, -1 for a local mutation.
type streamEntry struct {
	seq    uint64
	key    string
	delta  lattice.State
	origin int
	size   int
}

// streamPeer is one neighbour's half of the (peer, shard) streams: the
// outbound watermarks and retransmission timer, and the inbound
// watermark.
type streamPeer struct {
	acked uint64 // every owed entry with seq <= acked is acknowledged
	sent  uint64 // the next range to the peer starts here
	high  uint64 // the highest seq ever shipped to the peer
	recv  uint64 // every range from the peer up to recv has arrived
	// broken marks a stream that may have lost data since the peer's
	// digest last matched: a range from the peer started above recv
	// (a lost range, a cut-over, or this store restarted), an ack
	// rewound (one of the two restarted), or the peer was cut over.
	broken bool
	// gap is the seq the peer was cut over at while it has not
	// acknowledged the cut-over notice, 0 otherwise. Nothing else ships
	// to the peer meanwhile.
	gap uint64
	// deadline is the retransmission timer, zero while nothing shipped
	// is unacked; backoff counts consecutive expiries.
	deadline time.Time
	backoff  uint8
	// probe is the end of a range timed for a round-trip sample, shipped
	// at probeAt; 0 when none is in flight (Karn: retransmitted ranges
	// are never timed).
	probe        uint64
	probeAt      time.Time
	srtt, rttvar time.Duration
}

// streamObj is one object: its key (shared by its buffer entries) and
// state.
type streamObj struct {
	key string
	x   lattice.State
}

// joinItem is one key's δ being joined for a range; owned marks a clone
// that may be merged into (a buffered δ itself never is).
type joinItem struct {
	key   string
	d     lattice.State
	owned bool
}

// Stream is one shard's keyed engine under EngineAcked: the shard's
// objects, its seq-indexed δ-buffer, and one streamPeer per neighbour.
// Like every engine it is not safe for concurrent use; the store calls
// it under the shard lock.
type Stream struct {
	cfg     Config
	bp, rr  bool
	objType func(key string) workload.Datatype
	opts    StreamOptions
	objects map[string]streamObj
	keys    []string // sorted
	buf     []streamEntry
	head    uint64
	peers   []streamPeer
	index   map[string]int // neighbour id → peer index
	// bufBytes totals the buffered δ and key bytes.
	bufBytes int
	// tick is the sync period SyncAt was last called with; every
	// retransmission timeout allows one tick of delay.
	tick time.Duration
	// joined and join are ship's per-range scratch: key → index in join.
	joined map[string]int
	join   []joinItem
}

var (
	_ KeyedEngine    = (*Stream)(nil)
	_ ObjectRestorer = (*Stream)(nil)
)

// Stream defaults for options left zero.
const (
	defaultStreamChunk  = 1 << 20
	defaultStreamMaxLag = 1 << 20
)

// NewShardEngine builds one shard's keyed engine over a per-object
// factory: the shard-level δ-stream when inner is an acked engine
// (NewDeltaAcked), so a store never acknowledges per object; a
// NewPerObject keyspace of inner engines otherwise.
func NewShardEngine(inner Factory, objType func(key string) workload.Datatype, cfg Config, opts StreamOptions) KeyedEngine {
	probe := cfg
	probe.Datatype = objType("")
	if a, ok := inner(probe).(*deltaAcked); ok {
		return NewStream(cfg, a.bp, a.rr, objType, opts)
	}
	return NewPerObject(inner, objType)(cfg).(KeyedEngine)
}

// NewStream returns a shard's δ-stream engine with the given
// optimizations.
func NewStream(cfg Config, bp, rr bool, objType func(key string) workload.Datatype, opts StreamOptions) *Stream {
	if opts.Chunk <= 0 {
		opts.Chunk = defaultStreamChunk
	}
	if opts.MaxLag <= 0 {
		opts.MaxLag = defaultStreamMaxLag
	}
	e := &Stream{
		cfg:     cfg,
		bp:      bp,
		rr:      rr,
		objType: objType,
		opts:    opts,
		objects: make(map[string]streamObj),
		peers:   make([]streamPeer, len(cfg.Neighbors)),
		index:   make(map[string]int, len(cfg.Neighbors)),
		joined:  make(map[string]int),
	}
	for i, id := range cfg.Neighbors {
		e.index[id] = i
	}
	return e
}

// ID implements Engine.
func (e *Stream) ID() string { return e.cfg.ID }

// Keys implements KeyedEngine.
func (e *Stream) Keys() []string { return e.keys }

// ObjectState implements KeyedEngine.
func (e *Stream) ObjectState(key string) lattice.State {
	if o, ok := e.objects[key]; ok {
		return o.x
	}
	return nil
}

// State aggregates all object states into a map keyed by object key,
// sharing (not cloning) them.
func (e *Stream) State() lattice.State {
	m := lattice.NewMap()
	for _, key := range e.keys {
		if s := e.objects[key].x; !s.IsBottom() {
			m.Set(key, s)
		}
	}
	return m
}

// object returns (creating if needed) one object.
func (e *Stream) object(key string) streamObj {
	if o, ok := e.objects[key]; ok {
		return o
	}
	o := streamObj{key: key, x: e.objType(key).New()}
	e.objects[key] = o
	i := sort.SearchStrings(e.keys, key)
	e.keys = append(e.keys, "")
	copy(e.keys[i+1:], e.keys[i:])
	e.keys[i] = key
	return o
}

// LocalOp implements Engine: the δ-mutation joins the object and takes
// the shard's next seq.
func (e *Stream) LocalOp(op workload.Op) {
	o := e.object(op.Key)
	d := e.objType(op.Key).Delta(o.x, e.cfg.ID, op)
	if d.IsBottom() {
		return
	}
	o.x.Merge(d)
	e.buffer(o.key, d, -1)
}

// buffer appends one δ to the stream unless no neighbour needs it (its
// origin is the only neighbour under BP, or there are none): buffering
// it would leak, since nothing would ever ack it.
func (e *Stream) buffer(key string, d lattice.State, origin int) {
	if len(e.peers) == 0 || (e.bp && origin >= 0 && len(e.peers) == 1) {
		return
	}
	e.head++
	size := d.SizeBytes() + len(key)
	e.buf = append(e.buf, streamEntry{seq: e.head, key: key, delta: d, origin: origin, size: size})
	e.bufBytes += size
}

// Apply runs Algorithm 1's receive side on one object's δ from a peer:
// under RR it buffers exactly the part that strictly inflates the
// object, otherwise the whole δ when it inflates. It reports whether the
// object changed. The key view is only read (the lookup converts it in
// place); it is copied when the object is new.
func (e *Stream) Apply(from string, key []byte, d lattice.State) bool {
	o, ok := e.objects[string(key)]
	if !ok {
		o = e.object(string(key))
	}
	if e.rr {
		if d.Leq(o.x) {
			return false
		}
		d = core.Delta(d, o.x)
	} else if !lattice.StrictlyInflates(d, o.x) {
		return false
	}
	o.x.Merge(d)
	origin := -1
	if j, ok := e.index[from]; ok {
		origin = j
	}
	e.buffer(o.key, d, origin)
	return true
}

// Deliver implements Engine. The store routes a stream's ranges, acks
// and δs itself (Received, Ack, Apply), since it knows the shard and
// the key they belong to.
func (e *Stream) Deliver(string, Msg, Sender) {}

// RestoreObject implements ObjectRestorer: snapshot state joins the
// object without taking a seq.
func (e *Stream) RestoreObject(key string, st lattice.State) {
	e.object(key).x.Merge(st)
}

// Sync implements Engine with the wall clock and no tick allowance; the
// store calls SyncAt.
func (e *Stream) Sync(send Sender) { e.SyncAt(time.Now(), 0, send) }

// SyncAt runs one sync step, tick after the previous one, for every
// neighbour: go back to the last acked seq when the retransmission timer
// has expired, cut the neighbour over when it has left more than MaxLag
// bytes of δs unacked, send the cut-over notice while it is
// unacknowledged, and otherwise ship the joined δs of (sent, head] as
// bounded StreamMsg ranges.
func (e *Stream) SyncAt(now time.Time, tick time.Duration, send Sender) {
	e.tick = tick
	for j := range e.peers {
		p := &e.peers[j]
		if !p.deadline.IsZero() && !now.Before(p.deadline) {
			p.sent = p.acked
			p.deadline = time.Time{}
			p.probe = 0
			if p.backoff < maxBackoff {
				p.backoff++
			}
		}
		if e.bufBytes > e.opts.MaxLag && e.owedBytes(j) > e.opts.MaxLag {
			p.acked, p.sent, p.high = e.head, e.head, e.head
			p.gap = e.head
			p.broken = true
			p.deadline = time.Time{}
			p.probe = 0
		}
		if p.gap != 0 {
			if p.deadline.IsZero() {
				send(e.cfg.Neighbors[j], NewStreamMsg(p.gap, p.gap, nil))
				p.deadline = now.Add(p.rto(e.tick))
			}
			continue
		}
		if p.sent < e.head {
			e.ship(j, now, send)
		}
	}
	e.prune()
}

// ship sends neighbour j the entries in (sent, head] it does not already
// hold, as consecutive ranges of at most Chunk payload bytes. A range
// that holds nothing for j (only its own δs) is not sent: sent stays put,
// so the next range still starts at the peer's watermark.
func (e *Stream) ship(j int, now time.Time, send Sender) {
	p := &e.peers[j]
	start, bytes := p.sent, 0
	emit := func(end uint64) {
		items := make([]ObjectMsg, len(e.join))
		for k, ji := range e.join {
			items[k] = ObjectMsg{Key: ji.key, Inner: DeltaOf(ji.d)}
		}
		send(e.cfg.Neighbors[j], NewStreamMsg(start, end, items))
		clear(e.join)
		e.join = e.join[:0]
		clear(e.joined)
		start, bytes = end, 0
	}
	for i := e.after(p.sent); i < len(e.buf); i++ {
		en := &e.buf[i]
		if e.bp && en.origin == j {
			continue
		}
		if bytes > 0 && bytes+en.size > e.opts.Chunk {
			emit(e.buf[i-1].seq)
		}
		bytes += en.size
		k, ok := e.joined[en.key]
		if !ok {
			// A buffered δ is never mutated, so a key with one entry in
			// the range ships it without a clone.
			e.joined[en.key] = len(e.join)
			e.join = append(e.join, joinItem{key: en.key, d: en.delta})
			continue
		}
		ji := &e.join[k]
		if !ji.owned {
			ji.d, ji.owned = ji.d.Clone(), true
		}
		ji.d.Merge(en.delta)
	}
	if len(e.join) == 0 {
		return // nothing for j (a chunk is only cut before a δ for j)
	}
	emit(e.head)
	p.sent = e.head
	p.high = max(p.high, e.head)
	if p.deadline.IsZero() {
		p.deadline = now.Add(p.rto(e.tick))
	}
	if p.probe == 0 && p.backoff == 0 {
		p.probe, p.probeAt = e.head, now
	}
}

// after returns the index of the first buffered entry with seq > seq.
func (e *Stream) after(seq uint64) int {
	return sort.Search(len(e.buf), func(i int) bool { return e.buf[i].seq > seq })
}

// owedBytes totals the buffered bytes shipped to neighbour j and not
// acked yet: what a neighbour that stopped acking leaves behind. (Entries
// not shipped yet do not count, so a burst of writes between two ticks
// never cuts a healthy neighbour over — unless the neighbour has not yet
// acknowledged an earlier cut-over, when nothing ships to it at all.)
func (e *Stream) owedBytes(j int) int {
	p := &e.peers[j]
	end := p.high
	if p.gap != 0 {
		end = e.head
	}
	n := 0
	for i := e.after(p.acked); i < len(e.buf) && e.buf[i].seq <= end; i++ {
		if !(e.bp && e.buf[i].origin == j) {
			n += e.buf[i].size
		}
	}
	return n
}

// owes reports whether neighbour j has any δ left to ack.
func (e *Stream) owes(j int) bool {
	for i := e.after(e.peers[j].acked); i < len(e.buf); i++ {
		if !(e.bp && e.buf[i].origin == j) {
			return true
		}
	}
	return false
}

// rto returns the peer's current retransmission timeout.
func (p *streamPeer) rto(tick time.Duration) time.Duration {
	base := initialRTO
	if p.srtt > 0 {
		base = max(p.srtt+max(granularity, 4*p.rttvar), minRTO)
	}
	return (base + tick) << p.backoff
}

// sample folds one round-trip measurement into SRTT and RTTVAR.
func (p *streamPeer) sample(r time.Duration) {
	if p.srtt == 0 {
		p.srtt, p.rttvar = r, r/2
		return
	}
	d := p.srtt - r
	if d < 0 {
		d = -d
	}
	p.rttvar = (3*p.rttvar + d) / 4
	p.srtt = (7*p.srtt + r) / 8
}

// stop clears the peer's timer after a rewind.
func (p *streamPeer) stop() {
	p.deadline = time.Time{}
	p.probe = 0
	p.backoff = 0
}

// maxAckSeq bounds the watermarks Ack adopts. No stream reaches it, and
// jumping the seq space to a hostile watermark near 2^64 would let the
// next seq wrap around.
const maxAckSeq = 1 << 62

// Ack applies a neighbour's cumulative ack of this shard's stream. An
// ack below what the neighbour already acked means it lost acked data
// (it restarted): the stream goes back to its watermark, and what was
// pruned meanwhile is left to repair. An ack above everything ever
// shipped to it means this store's own seqs rewound (it restarted): the
// seq space jumps past the neighbour's watermark. Both break the stream.
// After a cut-over, acks below the gap predate the neighbour's taking
// the notice and are ignored; the first at or above it resumes the
// stream. Acks from unknown senders, and beyond maxAckSeq, are ignored.
func (e *Stream) Ack(from string, seq uint64, now time.Time) {
	j, ok := e.index[from]
	if !ok || seq > maxAckSeq {
		return
	}
	p := &e.peers[j]
	if p.gap != 0 {
		if seq < p.gap {
			return
		}
		p.gap = 0
		p.stop()
	}
	switch {
	case seq > p.high:
		e.head = max(e.head, seq)
		p.acked, p.sent, p.high = seq, seq, seq
		p.stop()
		p.broken = true
	case seq < p.acked:
		p.acked, p.sent = seq, seq
		p.stop()
		p.broken = true
	case seq > p.acked:
		if p.probe != 0 && seq >= p.probe {
			p.sample(now.Sub(p.probeAt))
			p.probe = 0
		}
		p.acked = seq
		p.sent = max(p.sent, seq)
		p.backoff = 0
		if p.acked == p.high {
			p.deadline = time.Time{}
		} else {
			p.deadline = now.Add(p.rto(e.tick))
		}
	case p.backoff > 0 && p.acked < p.high:
		// A duplicate ack proves the peer is alive: drop the backoff a
		// dead spell built up.
		p.backoff = 0
		p.deadline = now.Add(p.rto(e.tick))
	}
	e.prune()
}

// Revive restarts a neighbour's retransmission after its connection came
// back: whatever it left unacked, or an unacknowledged cut-over notice,
// goes out again on the next sync step, with the backoff a dead spell
// built up dropped.
func (e *Stream) Revive(peer string) {
	j, ok := e.index[peer]
	if !ok {
		return
	}
	p := &e.peers[j]
	if p.acked < p.high || p.gap != 0 {
		p.sent = p.acked
		p.stop()
	}
}

// Received records that a range (start, end] from a neighbour has been
// applied. It advances the receive watermark only when the range starts
// at or below it: a range from above means an earlier one was lost —
// the watermark waits for the retransmission — or that this store
// restarted and lost what it had acked, so the stream is broken. An
// empty range from above is a cut-over notice: the sender dropped what
// it owed up to end, so the stream is broken and resumes from end. It
// returns the watermark to acknowledge, and false when the sender is
// not a neighbour.
func (e *Stream) Received(from string, start, end uint64) (uint64, bool) {
	j, ok := e.index[from]
	if !ok {
		return 0, false
	}
	p := &e.peers[j]
	switch {
	case start > p.recv:
		p.broken = true
		if start == end {
			p.recv = end
		}
	case end > p.recv:
		p.recv = end
	}
	return p.recv, true
}

// Status classifies the (peer, shard) stream for the repair hold.
func (e *Stream) Status(peer string) StreamStatus {
	j, ok := e.index[peer]
	if !ok {
		return StreamSettled
	}
	p := &e.peers[j]
	switch {
	case p.broken:
		return StreamBroken
	case e.owes(j):
		return StreamUnsettled
	}
	return StreamSettled
}

// Broken reports whether any of the shard's streams is broken.
func (e *Stream) Broken() bool {
	for j := range e.peers {
		if e.peers[j].broken {
			return true
		}
	}
	return false
}

// Mend clears the peer's broken mark once its digest matches again:
// whatever the stream lost has been repaired.
func (e *Stream) Mend(peer string) {
	if j, ok := e.index[peer]; ok {
		e.peers[j].broken = false
	}
}

// Outstanding reports whether any neighbour has shipped ranges left to
// ack, ranges to ship again after a rewind, or buffered δs to ship once
// it acknowledged a cut-over: the shard must keep being visited so its
// timers are checked and the ranges sent.
func (e *Stream) Outstanding() bool {
	for j := range e.peers {
		if p := &e.peers[j]; !p.deadline.IsZero() || p.sent < p.high || e.owes(j) {
			return true
		}
	}
	return false
}

// prune drops the buffered entries every neighbour that needs them has
// acked. Entries are in seq order, so it stops at the first one still
// owed.
func (e *Stream) prune() {
	i := 0
	for ; i < len(e.buf); i++ {
		en := &e.buf[i]
		owed := false
		for j := range e.peers {
			if !(e.bp && en.origin == j) && e.peers[j].acked < en.seq {
				owed = true
				break
			}
		}
		if owed {
			break
		}
		e.bufBytes -= en.size
	}
	if i == 0 {
		return
	}
	n := copy(e.buf, e.buf[i:])
	clear(e.buf[n:])
	e.buf = e.buf[:n]
}

// Memory implements Engine: buffered δ and key bytes, 8 bytes of seq
// per entry plus the per-neighbour watermarks as metadata.
func (e *Stream) Memory() metrics.Memory {
	crdt := 0
	for _, key := range e.keys {
		crdt += e.objects[key].x.SizeBytes() + len(key)
	}
	return metrics.Memory{
		CRDTBytes:     crdt,
		BufferBytes:   e.bufBytes,
		MetadataBytes: 8*len(e.buf) + 24*len(e.peers),
	}
}
