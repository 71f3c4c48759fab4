package transport

import (
	"sync"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/protocol"
)

// This file implements the repair side of digest anti-entropy: the
// per-shard Merkle hash tree that turns a root-digest mismatch into a
// log-depth drill-down (protocol.TreeMsg), and the repair table that
// keeps a store from re-requesting a shard on every heartbeat while its
// repair — or its own δs — are still on the wire.

const (
	// defaultRepairTimeout bounds how long one shard's repair may stay
	// in flight before the next digest mismatch may retrigger it. It is
	// also the retry cadence when repair messages are lost, so it stays
	// close to the scale of a round trip plus a shard ship; re-requesting
	// a repair early only costs a duplicate idempotent merge.
	defaultRepairTimeout = time.Second
	// defaultTreeMinKeys is the local key count below which a diverged
	// shard is pulled whole rather than drilled: under ~a few hundred
	// keys the full ship is smaller than the hash exchange.
	defaultTreeMinKeys = 256
	// treeMaxQuery caps the drill fan-out: when the differing nodes'
	// children would exceed this many indices, most of the shard differs
	// and the drill-down falls back to a full-shard pull — which is then
	// proportional to the divergence by definition.
	treeMaxQuery = 1024
	// maxDrillFails is how many consecutive drill-downs on one shard may
	// time out before repair falls back to the flat full pull. The drill
	// is a multi-round exchange, so under heavy frame loss its completion
	// probability decays with every round; the flat pull is two messages
	// and wins on lossy links even though it ships the whole shard.
	maxDrillFails = 2
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold continues an FNV-1a fold over b (allocation-free; hash/fnv's
// hasher escapes through the interface — same reason as fnv32a).
func fnvFold(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// fnvFoldString is fnvFold over a key without the []byte conversion.
func fnvFoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// treeLeafIdx buckets a key into its shard's hash-tree leaf by the top
// bits of the same key hash shard routing uses the bottom bits of, so
// the two partitions stay independent.
func treeLeafIdx(key string) uint32 {
	return fnv32a(key) >> (32 - protocol.TreeFanoutBits*protocol.TreeDepth)
}

// treeBitmap marks tree node/leaf indices; sized for the leaf level, the
// widest, so one stack allocation serves every level.
type treeBitmap [protocol.TreeLeaves / 64]uint64

func (t *treeBitmap) set(i uint32)      { t[i/64] |= 1 << (i % 64) }
func (t *treeBitmap) has(i uint32) bool { return t[i/64]&(1<<(i%64)) != 0 }

// leafKeyHash is one key's hash: an FNV-1a fold over (key bytes,
// canonical encoding). A leaf is the XOR of the hashes of the keys
// bucketed into it (an empty leaf is 0), an interior node the XOR of its
// leaf range, and the shard digest the XOR of every key's hash — the
// tree's root. XOR is order-independent, so replicas holding equal
// contents produce equal hashes regardless of key order, and one key's
// change patches every level with old^new (incremental hashing in the
// sense of Bellare and Micciancio). The fold is not cryptographic: it
// detects divergence between honest replicas, nothing more. Hashes are
// only ever compared between replicas running the same code, so the
// combining rule is free to change between versions.
func leafKeyHash(k string, enc []byte) uint64 {
	return fnvFold(fnvFoldString(fnvOffset64, k), enc)
}

// keyHash is one key's cached hash as of the last refresh (0 before its
// first). next links the entries marked since then into the shard's
// changed list; it is nil while the entry is not on the list, and the
// list ends at changedEnd, never at nil. Linking through the entries
// keeps marking allocation-free and costs no memory beyond the entry.
type keyHash struct {
	key  string
	hash uint64
	next *keyHash
}

// changedEnd terminates every shard's changed list.
var changedEnd = new(keyHash)

// markKey records that key's state may have changed, so the next refresh
// rehashes it. Only a key's first appearance allocates. Caller holds
// sh.mu.
func (sh *shard) markKey(key string) {
	e := sh.hashes[key]
	if e == nil {
		e = &keyHash{key: key}
		sh.hashes[key] = e
	}
	sh.markEntry(e)
}

// markKeyBytes is markKey for a key still aliasing a frame buffer: the
// lookup converts it in place, so marking a known key allocates nothing.
func (sh *shard) markKeyBytes(key []byte) {
	if e := sh.hashes[string(key)]; e != nil {
		sh.markEntry(e)
		return
	}
	sh.markKey(string(key))
}

func (sh *shard) markEntry(e *keyHash) {
	if e.next != nil {
		return // already on the changed list
	}
	e.next = sh.changed
	sh.changed = e
	sh.digestOK.Store(false)
}

// refreshLocked rehashes the keys marked since the last refresh, patches
// the digest — and the leaf vector, once one exists — with old^new, and
// returns the current digest. Its cost is proportional to the keys that
// changed, not to the shard. Caller holds sh.mu.
func (sh *shard) refreshLocked() uint64 {
	root := sh.digest.Load()
	if sh.changed == changedEnd {
		return root
	}
	for e := sh.changed; e != changedEnd; {
		sh.scratch = codec.AppendState(sh.scratch[:0], sh.engine.ObjectState(e.key))
		h := leafKeyHash(e.key, sh.scratch)
		if d := e.hash ^ h; d != 0 {
			root ^= d
			if sh.leaf != nil {
				sh.leaf[treeLeafIdx(e.key)] ^= d
			}
			e.hash = h
		}
		next := e.next
		e.next = nil
		e = next
	}
	sh.changed = changedEnd
	sh.digest.Store(root)
	sh.digestOK.Store(true)
	return root
}

// contentDigest returns the shard's current digest: lock-free while no
// key is marked changed — the common case on an idle keyspace — else
// after a refresh under the shard lock.
func (sh *shard) contentDigest() uint64 {
	if sh.digestOK.Load() {
		return sh.digest.Load()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.refreshLocked()
}

// leavesLocked returns the shard's current leaf vector. The first
// drill-down builds it from the cached key hashes without re-encoding a
// state; every later refresh patches it in place. Caller holds sh.mu.
func (sh *shard) leavesLocked() []uint64 {
	sh.refreshLocked()
	if sh.leaf == nil {
		sh.leaf = make([]uint64, protocol.TreeLeaves)
		for k, e := range sh.hashes {
			sh.leaf[treeLeafIdx(k)] ^= e.hash
		}
	}
	return sh.leaf
}

// treeNodeHashes appends the shard's hashes for the given node indices
// at level (indices already validated against the level's node count).
// A node's hash is the XOR of its leaf range; at the leaf level the range
// is the leaf itself.
func (s *Store) treeNodeHashes(sh *shard, level int, nodes []uint32, out []uint64) []uint64 {
	span := protocol.TreeLeafSpan(level)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	leaves := sh.leavesLocked()
	for _, idx := range nodes {
		h := uint64(0)
		for _, l := range leaves[idx*span : (idx+1)*span] {
			h ^= l
		}
		out = append(out, h)
	}
	return out
}

// repairEntry tracks one shard's in-flight repair: which peer it was
// requested from, when the request expires if no repair data lands,
// whether the data request (flat or leaf-level Want) has gone out yet,
// and how many consecutive attempts have timed out. heldSince is when
// the first mismatch held since the last match or repair start was seen
// (zero while none is held).
type repairEntry struct {
	active    bool
	wantSent  bool
	fails     uint8
	peer      string
	expires   time.Time
	heldSince time.Time
}

// repairTable gates repair requests per shard. It holds mismatches on a
// shard whose own δs are still in flight for up to the timeout (hold),
// and it is the Want-storm gate: at most one outstanding repair request
// (flat Want or tree drill-down) per shard, cleared when repair data
// arrives from the peer it was requested from, when the shard's digests
// re-match, or on timeout.
type repairTable struct {
	mu      sync.Mutex
	timeout time.Duration
	entries []repairEntry
}

// tryStart claims the shard's repair slot, returning ok=false while an
// unexpired repair is already in flight (the deduped-Want case). When it
// claims a slot whose previous repair timed out, the consecutive-failure
// count carries over (and is returned), so the caller can stop drilling
// and fall back to the flat pull on a link that keeps eating rounds.
func (r *repairTable) tryStart(shard int, peer string, now time.Time) (fails int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[shard]
	if e.active && now.Before(e.expires) {
		return 0, false
	}
	f := uint8(0)
	if e.active { // the previous attempt expired unrepaired
		if f = e.fails; f < maxDrillFails {
			f++
		}
	}
	*e = repairEntry{active: true, fails: f, peer: peer, expires: now.Add(r.timeout)}
	return int(f), true
}

// hold reports whether a mismatch on a shard with δs still in flight
// should be held rather than repaired: true until the first held
// mismatch is timeout old. Starting a repair or a digest match ends the
// hold, so a shard that never goes quiet is repaired about once per
// timeout instead of never.
func (r *repairTable) hold(shard int, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[shard]
	if e.heldSince.IsZero() {
		e.heldSince = now
	}
	return now.Sub(e.heldSince) < r.timeout
}

// refresh reports whether the shard's in-flight repair is with peer and,
// when it is, extends its deadline — a drill-down answer is progress.
func (r *repairTable) refresh(shard int, peer string, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[shard]
	if !e.active || e.peer != peer || !now.Before(e.expires) {
		return false
	}
	e.expires = now.Add(r.timeout)
	return true
}

// markWant records that the shard's repair has asked peer for data (a
// flat Want or a leaf-level tree Want), arming clearFrom.
func (r *repairTable) markWant(shard int, peer string) {
	r.mu.Lock()
	if e := &r.entries[shard]; e.active && e.peer == peer {
		e.wantSent = true
	}
	r.mu.Unlock()
}

// clearFrom releases the shard's repair slot if it is held against peer
// and has asked it for data — called on every sharded data delivery, so
// the wantSent gate is what keeps ordinary delta traffic from the same
// peer from aborting a drill-down mid-flight.
func (r *repairTable) clearFrom(shard int, peer string) {
	r.mu.Lock()
	if e := &r.entries[shard]; e.active && e.wantSent && e.peer == peer {
		*e = repairEntry{}
	}
	r.mu.Unlock()
}

// clear releases the shard's repair slot unconditionally — called when
// the shard's digests match again, however that happened.
func (r *repairTable) clear(shard int) {
	r.mu.Lock()
	r.entries[shard] = repairEntry{}
	r.mu.Unlock()
}

// handleDigests compares a peer's digest advertisement against the
// local shards and starts a repair for whichever differ — unless the
// local shard still has its own δs in flight (the hold: the peer's
// digest cannot reflect δs it has not received, so the mismatch is no
// evidence of divergence until it outlasts RepairTimeout), or a repair
// is already in flight for that shard (the Want-storm dedup). Large
// shards repair by Merkle drill-down; small ones are pulled whole.
func (s *Store) handleDigests(from string, digests []uint64) {
	if len(digests) == 0 {
		return
	}
	if len(digests) != len(s.shards) {
		// Shard-count mismatch: the vectors are not comparable and
		// anti-entropy cannot repair anything — count it so a
		// misconfigured cluster says why it never converges.
		s.statsMu.Lock()
		s.stats.DigestShardMismatch++
		s.statsMu.Unlock()
		return
	}
	now := time.Now()
	var flat []uint32
	deduped, held := 0, 0
	for i, sh := range s.shards {
		if sh.contentDigest() == digests[i] {
			s.repair.clear(i)
			if sh.broken.Load() {
				sh.mu.Lock()
				sh.st.Mend(from)
				sh.broken.Store(sh.st.Broken())
				sh.mu.Unlock()
			}
			continue
		}
		if s.holdRepair(sh, i, from, now) {
			held++
			continue
		}
		fails, ok := s.repair.tryStart(i, from, now)
		if !ok {
			deduped++
			continue
		}
		if fails < maxDrillFails && s.treeEligible(sh) {
			s.sendTreeQuery(from, uint32(i), 1, treeLevelOneQuery)
		} else {
			s.repair.markWant(i, from)
			flat = append(flat, uint32(i))
		}
	}
	if deduped+held > 0 {
		s.statsMu.Lock()
		s.stats.DedupedWants += deduped
		s.stats.HeldRepairs += held
		s.statsMu.Unlock()
	}
	if len(flat) > 0 {
		s.statsMu.Lock()
		s.stats.WantShards += len(flat)
		s.statsMu.Unlock()
		m := protocol.NewDigestMsg(nil, flat, protocol.DigestCost(nil, flat))
		s.transmitMsg(from, m, frameDigest)
	}
}

// holdRepair reports whether a digest mismatch between this store and
// peer on shard i is no evidence of divergence yet, because δs are still
// in flight between the two. Under EngineDelta that is a shard whose own
// δs may be on the wire, held for at most RepairTimeout. A broken
// δ-stream may have lost data only repair restores, so it gets the same
// bounded hold, whatever else is in flight. An intact one holds while
// the shard has changes no range has carried, or while its stream to
// the peer is owed acks: retransmission delivers those, so the hold
// needs no time bound — the peer's vector reflects everything its own
// stream to this store carried before it.
func (s *Store) holdRepair(sh *shard, i int, peer string, now time.Time) bool {
	if sh.st == nil {
		return sh.pending.Load() && s.repair.hold(i, now)
	}
	sh.mu.Lock()
	status := sh.st.Status(peer)
	sh.mu.Unlock()
	switch {
	case status == protocol.StreamBroken:
		return s.repair.hold(i, now)
	case status == protocol.StreamUnsettled:
		return true
	}
	return sh.dirty.Load()
}

// treeLevelOneQuery is the first drill-down step, the same for every
// repair: all of level 1.
var treeLevelOneQuery = func() []uint32 {
	q := make([]uint32, protocol.TreeFanout)
	for i := range q {
		q[i] = uint32(i)
	}
	return q
}()

// treeEligible reports whether a diverged shard should repair by
// drill-down rather than a full pull: enough local keys that the hash
// exchange is cheaper than shipping everything.
func (s *Store) treeEligible(sh *shard) bool {
	sh.mu.Lock()
	n := len(sh.engine.Keys())
	sh.mu.Unlock()
	return n >= s.cfg.TreeRepairMinKeys
}

// sendTreeQuery ships one drill-down query round and counts it.
func (s *Store) sendTreeQuery(to string, shard uint32, level int, query []uint32) {
	s.statsMu.Lock()
	s.stats.TreeRounds++
	s.statsMu.Unlock()
	m := protocol.NewTreeMsg(shard, uint8(level), query, nil, nil, nil,
		protocol.TreeCost(query, nil, nil, nil))
	s.transmitMsg(to, m, frameDigest)
}

// transmitMsg encodes one control message and hands it to the peer's
// write pipeline. Encoding a message the store itself built can only
// fail on a programming error.
func (s *Store) transmitMsg(to string, m protocol.Msg, kind frameKind) {
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	s.transmit(to, data, m.Cost(), kind)
}

// handleTree dispatches one drill-down step by which role the message
// plays: a Query is answered with hashes, an answer's Nodes/Hashes are
// compared to continue the drill, a Want is served with range data.
// The decoder bounds Shard only against uint32 (shard counts are not
// wire-negotiated), so the shard-map skew check happens here.
func (s *Store) handleTree(from string, tm *protocol.TreeMsg) {
	if int(tm.Shard) >= len(s.shards) {
		return // shard-map skew; the digests were never comparable
	}
	level := int(tm.Level)
	if level < 1 || level > protocol.TreeDepth {
		return // decoder enforces this; kept for directly built messages
	}
	if len(tm.Query) > 0 {
		s.serveTreeQuery(from, tm.Shard, level, tm.Query)
	}
	if len(tm.Nodes) > 0 {
		s.continueDrill(from, tm.Shard, level, tm.Nodes, tm.Hashes)
	}
	if len(tm.Want) > 0 {
		s.serveTreeWant(from, tm.Shard, level, tm.Want)
	}
}

// serveTreeQuery answers a drill-down query with this store's hashes of
// the queried nodes. Duplicate or out-of-range indices are dropped: the
// reply is sized by the tree geometry, never by the request length.
func (s *Store) serveTreeQuery(to string, shardIdx uint32, level int, query []uint32) {
	maxNode := uint32(protocol.TreeNodesAt(level))
	var seen treeBitmap
	nodes := make([]uint32, 0, len(query))
	for _, q := range query {
		if q >= maxNode || seen.has(q) {
			continue
		}
		seen.set(q)
		nodes = append(nodes, q)
	}
	if len(nodes) == 0 {
		return
	}
	hashes := s.treeNodeHashes(s.shards[shardIdx], level, nodes, make([]uint64, 0, len(nodes)))
	m := protocol.NewTreeMsg(shardIdx, uint8(level), nil, nodes, hashes, nil,
		protocol.TreeCost(nil, nodes, hashes, nil))
	s.transmitMsg(to, m, frameDigest)
}

// continueDrill compares an answer's hashes against this store's own
// and takes the next step: query the differing nodes' children, send
// the leaf-level Want, or — when the divergence turns out wider than
// drilling pays for — fall back to the flat full-shard pull.
func (s *Store) continueDrill(from string, shardIdx uint32, level int, nodes []uint32, hashes []uint64) {
	if len(hashes) != len(nodes) {
		return // decoder enforces this; kept for directly built messages
	}
	if !s.repair.refresh(int(shardIdx), from, time.Now()) {
		return // stale or foreign answer: not the repair in flight here
	}
	// Validate and dedup the answer's indices BEFORE hashing, honoring
	// treeNodeHashes' "indices already validated" contract (the same
	// ordering serveTreeQuery uses): an out-of-range index would slice
	// past the leaf vector and panic the store on a hand-built message —
	// the wire decoder bounds indices, but this path must not rely on it.
	maxNode := uint32(protocol.TreeNodesAt(level))
	var seen treeBitmap
	valid := make([]uint32, 0, len(nodes))
	theirs := make([]uint64, 0, len(nodes))
	for i, idx := range nodes {
		if idx >= maxNode || seen.has(idx) {
			continue
		}
		seen.set(idx)
		valid = append(valid, idx)
		theirs = append(theirs, hashes[i])
	}
	if len(valid) == 0 {
		return // nothing comparable in the answer
	}
	mine := s.treeNodeHashes(s.shards[shardIdx], level, valid, make([]uint64, 0, len(valid)))
	var diff []uint32
	for i, idx := range valid {
		if mine[i] != theirs[i] {
			diff = append(diff, idx)
		}
	}
	if len(diff) == 0 {
		// The root digests differed but no queried node does: either
		// repair already landed through another path, or the peer holds
		// keys this store lacks entirely (its advertisement to the peer
		// repairs that direction). Let the next heartbeat re-evaluate.
		s.repair.clear(int(shardIdx))
		s.statsMu.Lock()
		s.stats.EmptyDrills++
		s.statsMu.Unlock()
		return
	}
	if level == protocol.TreeDepth {
		s.statsMu.Lock()
		s.stats.TreeRounds++
		s.statsMu.Unlock()
		s.repair.markWant(int(shardIdx), from)
		m := protocol.NewTreeMsg(shardIdx, uint8(level), nil, nil, nil, diff,
			protocol.TreeCost(nil, nil, nil, diff))
		s.transmitMsg(from, m, frameDigest)
		return
	}
	if len(diff)*protocol.TreeFanout > treeMaxQuery {
		s.statsMu.Lock()
		s.stats.WantShards++
		s.statsMu.Unlock()
		s.repair.markWant(int(shardIdx), from)
		want := []uint32{shardIdx}
		m := protocol.NewDigestMsg(nil, want, protocol.DigestCost(nil, want))
		s.transmitMsg(from, m, frameDigest)
		return
	}
	next := make([]uint32, 0, len(diff)*protocol.TreeFanout)
	for _, idx := range diff {
		base := idx << protocol.TreeFanoutBits
		for c := uint32(0); c < protocol.TreeFanout; c++ {
			next = append(next, base+c)
		}
	}
	s.sendTreeQuery(from, shardIdx, level+1, next)
}

// serveTreeWant ships the keys in the requested node ranges in full,
// through the same bounded chunks as a full-shard pull (serveShard).
// Duplicate and out-of-range want indices are served once or not at
// all, so the work is bounded by the shard, never the request. When no
// local key falls in the ranges, the divergence is keys this store
// lacks, repaired in the opposite direction by its own advertisements;
// no delivery will clear the peer's repair slot, so it expires by
// timeout.
func (s *Store) serveTreeWant(from string, shardIdx uint32, level int, want []uint32) {
	maxNode := uint32(protocol.TreeNodesAt(level))
	span := protocol.TreeLeafSpan(level)
	var leaves treeBitmap
	ranges := 0
	for _, w := range want {
		if w >= maxNode {
			continue
		}
		lo := w * span
		if leaves.has(lo) {
			continue
		}
		ranges++
		for l := lo; l < lo+span; l++ {
			leaves.set(l)
		}
	}
	if ranges == 0 {
		return
	}
	r := repairShip{s: s, to: from}
	bytes := s.serveShard(&r, shardIdx, &leaves)
	r.ship()
	if bytes > 0 {
		s.statsMu.Lock()
		s.stats.RepairRanges += ranges
		s.stats.RepairBytes += bytes
		s.statsMu.Unlock()
	}
}
