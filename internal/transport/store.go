package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// StoreConfig describes one replica of a sharded multi-object store.
type StoreConfig struct {
	// ID is this replica's identifier.
	ID string
	// ListenAddr is the TCP address to accept neighbor frames on.
	ListenAddr string
	// Listener, when non-nil, is used instead of binding ListenAddr.
	Listener net.Listener
	// Dial, when non-nil, replaces the default TCP dialer for outbound
	// connections; fault-injection harnesses wrap it to drop, duplicate
	// or delay frames.
	Dial DialFunc
	// Peers maps neighbor ids to their listen addresses.
	Peers map[string]string
	// Nodes is the full membership (sorted); defaults to ID + peers.
	Nodes []string
	// Shards is the shard count, rounded up to a power of two
	// (default 16). Every replica in a cluster must use the same value:
	// the shard index is frame routing metadata.
	Shards int
	// Factory builds the inner per-object protocol engine
	// (e.g. protocol.NewDeltaBPRR()).
	Factory protocol.Factory
	// ObjType chooses the datatype of each object from its key.
	ObjType func(key string) workload.Datatype
	// SyncEvery is the synchronization period (default 1s).
	SyncEvery time.Duration
	// PeerQueueLen bounds each peer's outbound queue by frame count
	// (default 128). transmit is a non-blocking enqueue onto a per-peer
	// writer goroutine, so a stalled peer delays only its own frames;
	// when a queue exceeds either bound, the oldest queued frame is
	// evicted (drop-oldest) and counted in Stats().Peers — acked engines
	// retransmit the loss and digest anti-entropy repairs the rest.
	PeerQueueLen int
	// PeerQueueBytes bounds each peer's outbound queue by encoded bytes
	// (default 8 MiB). Frames vary ~100x in size, so a count bound alone
	// budgets almost nothing: 128 heartbeats are a few KiB while 128 full
	// batches can be GiBs. Eviction keeps the queue within whichever
	// bound it crosses first, always sparing the newest frame so an
	// over-budget frame is still shipped rather than wedged.
	PeerQueueBytes int
	// DigestEvery enables digest anti-entropy: every DigestEvery-th sync
	// tick the store also ships its per-shard digest vector to every
	// peer; a peer whose digests differ repairs those shards (a full pull
	// or a Merkle drill-down). This repairs divergence the inner engines
	// cannot see (lost frames under clear-after-send engines, healed
	// partitions) at a near-constant per-tick cost of 8 bytes per shard
	// once converged. A mismatch while δs are still in flight between
	// the two replicas is expected and says nothing about divergence, so
	// its repair is held (see RepairTimeout). 0 disables digests (delta
	// traffic only).
	DigestEvery int
	// MaxFrameBytes caps the encoded size of one data frame; a sync tick
	// whose batch exceeds it is packed into multiple bounded frames. 0 or
	// anything above the transport-wide maximum means the 64 MiB
	// transport cap. Tests lower it to exercise packing cheaply.
	MaxFrameBytes int
	// RepairTimeout bounds how long one shard's repair request (flat
	// Want or tree drill-down) stays in flight before a digest mismatch
	// may retrigger it (default 1s). While a repair is in flight further
	// mismatching heartbeats for that shard are deduplicated rather than
	// re-requested — the Want-storm fix. It doubles as the retry cadence
	// when repair messages are lost; after two consecutive drill-downs
	// time out on a shard, repair falls back to the flat full pull, whose
	// two-message exchange survives lossy links the multi-round drill
	// cannot. It also bounds some repair holds (counted in
	// Stats().HeldRepairs): under the acked engine, the hold on a broken
	// δ-stream — a lost or rewound range, or a cut-over — however busy
	// the shard is, while a hold on an intact stream lasts exactly until
	// its δs are acked;
	// under a per-object engine, the hold on a shard whose own δs are
	// still in flight, so a shard that never goes quiet is still
	// repaired about every RepairTimeout plus one advertisement interval.
	RepairTimeout time.Duration
	// TreeRepairMinKeys is the local key count from which a diverged
	// shard repairs by Merkle drill-down instead of a full-shard pull
	// (default 256). Below it, shipping the shard whole is cheaper than
	// the hash exchange; a value above every shard's size disables the
	// drill-down.
	TreeRepairMinKeys int
	// SnapshotDir, when set, enables crash-restart durability: a
	// background snapshotter periodically serializes each shard's objects
	// through the canonical codec to an atomic-rename file per shard in
	// this directory, and StartStore restores from those files before
	// joining the mesh. A restored replica is as stale as its last
	// snapshot; ordinary digest anti-entropy repairs the gap, so recovery
	// cost is proportional to staleness, not keyspace size. Empty
	// disables snapshots entirely (the prior, memory-only behavior).
	SnapshotDir string
	// SnapshotEvery is the snapshot period (default 10s when SnapshotDir
	// is set). Each pass serializes one shard at a time under its lock,
	// skipping shards whose content digest has not moved since their
	// last snapshot, so a quiescent store's pass costs a few atomic
	// loads and no I/O.
	SnapshotEvery time.Duration
}

// StoreStats counts what a store has put on the wire.
type StoreStats struct {
	// Frames is the number of TCP frames written (data and digests).
	Frames int
	// WireBytes is the total bytes written, including frame headers.
	WireBytes int
	// DigestFrames counts the standalone digest frames within Frames —
	// advertisement heartbeats that found no data frame to ride and
	// shard-request replies; the rest carry data.
	DigestFrames int
	// AckFrames counts the compact δ-stream ack frames within Frames:
	// one cumulative watermark per touched shard, sent as soon as a data
	// frame is applied.
	AckFrames int
	// PiggybackedDigests counts data frames that additionally carried the
	// per-shard digest vector: advertisements that would each have been a
	// standalone DigestFrame without piggybacking.
	PiggybackedDigests int
	// SplitFrames counts the frames that are pieces of a split batch:
	// a tick whose batch overflowed the cap and went out as k bounded
	// frames adds k here (0 when every batch fit in one frame).
	SplitFrames int
	// OversizedDropped counts irreducible messages larger than the frame
	// cap that had to be dropped (a single object's state exceeding
	// MaxFrameBytes). With digest anti-entropy enabled, a steadily
	// growing value means an unshippable object is permanently blocking
	// its shard's convergence — peers will keep requesting the shard
	// every heartbeat; raise MaxFrameBytes or shrink the object.
	OversizedDropped int
	// WantShards counts shards this store requested from peers in full
	// after a digest mismatch — small shards, and drill-downs that found
	// most of a shard diverged or kept timing out.
	WantShards int
	// RepairShards counts full shards this store served to peers that
	// requested them.
	RepairShards int
	// DedupedWants counts digest mismatches that did not issue a repair
	// request because one was already in flight for that shard — the
	// Want storms the repair table absorbed.
	DedupedWants int
	// HeldRepairs counts digest mismatches that did not issue a repair
	// request because δs were still in flight between the two replicas,
	// so the peer's digest could not yet reflect them: under EngineAcked,
	// a shard with unsent changes or an unsettled or broken δ-stream to
	// that peer; under EngineDelta, a shard with its own δs pending (see
	// RepairTimeout).
	HeldRepairs int
	// TreeRounds counts Merkle drill-down rounds this store initiated
	// (level queries and leaf Wants). A single-key repair costs
	// TreeDepth query rounds plus one Want.
	TreeRounds int
	// EmptyDrills counts drill-downs that ended without finding a
	// differing range: the root digests differed, but no queried node
	// did by the time the answer came back — the mismatch resolved
	// itself while the drill was in flight.
	EmptyDrills int
	// RepairRanges counts leaf/node ranges this store served in full to
	// drilling peers — the range-limited counterpart of RepairShards.
	RepairRanges int
	// RepairBytes totals the key+state payload bytes of the range
	// repairs served, the measure the drill-down keeps proportional to
	// divergence rather than shard size.
	RepairBytes int
	// DigestShardMismatch counts digest advertisements dropped because
	// their shard count differs from this store's — a misconfigured
	// cluster whose divergence anti-entropy cannot repair.
	DigestShardMismatch int
	// DroppedItems counts inbound shard items discarded because their
	// shard index was outside this store's shard range — shard-map skew
	// between sender and receiver (the shard index is frame routing
	// metadata, so every replica in a cluster must run the same count).
	// A steadily growing value means misconfiguration: that data never
	// applies here, and digest vectors of mismatched length are likewise
	// incomparable, so anti-entropy cannot repair it either.
	DroppedItems int
	// SnapshotsWritten counts shard snapshot files written (shards whose
	// digest had not moved since their last snapshot are skipped and not
	// counted).
	SnapshotsWritten int
	// SnapshotBytes totals the encoded size of the snapshot files
	// written.
	SnapshotBytes int
	// SnapshotRestoredKeys counts objects restored from snapshot files
	// at startup.
	SnapshotRestoredKeys int
	// SnapshotRestoreErrors counts snapshot files skipped at startup
	// because they were unreadable or failed validation (bad checksum,
	// truncation). Each such file contributes nothing — the store falls
	// back to whatever the remaining files and anti-entropy provide —
	// and the store never fails to start over a damaged snapshot.
	SnapshotRestoreErrors int
	// RejectedConns counts inbound connections closed by the inbound
	// caps: a few per configured peer, and as many again shared by the
	// connections that have not named a configured peer yet. Over a cap
	// the oldest connection is the one closed.
	RejectedConns int
	// WatchDropped counts change notifications dropped because a
	// watcher's pending buffer was full — a consumer reading its Events
	// channel too slowly. The watcher itself learns the same fact from
	// the Lagged mark on its next event.
	WatchDropped int
	// SyncWorkers is the shard-work pool width: GOMAXPROCS when the
	// store started.
	SyncWorkers int
	// SyncWorkerShards counts, per pool worker, the shards that worker
	// claimed across all parallel stages — skew between entries means
	// shard work is unevenly sized (one hot shard dominating a tick).
	SyncWorkerShards []uint64
	// SyncWorkerBusyNs totals, per pool worker, the nanoseconds spent
	// inside parallel stages. The ratio of max to min entry is the
	// pool's load imbalance.
	SyncWorkerBusyNs []int64
	// Sent is the aggregated protocol-level transmission accounting.
	Sent metrics.Transmission
	// Peers holds the per-peer write-pipeline accounting: frames and
	// bytes enqueued toward each peer, frames and bytes dropped (queue
	// overflow or failed sends), frames coalesced on drain, reconnects,
	// and the pipeline's connection state. Frames/WireBytes above count
	// at enqueue time: frames later dropped by a sick pipeline, and the
	// per-frame headers saved when a drained backlog is coalesced, never
	// reach the wire even though they are counted here — Peers is where
	// both corrections are visible (Dropped/DroppedBytes, Coalesced).
	Peers map[string]PeerStats
}

// Add accumulates another snapshot into s, field by field; benchmarks and
// examples use it to aggregate cluster-wide totals without hand-summing
// (and silently missing) fields.
func (s *StoreStats) Add(o StoreStats) {
	s.Frames += o.Frames
	s.WireBytes += o.WireBytes
	s.DigestFrames += o.DigestFrames
	s.AckFrames += o.AckFrames
	s.PiggybackedDigests += o.PiggybackedDigests
	s.SplitFrames += o.SplitFrames
	s.OversizedDropped += o.OversizedDropped
	s.WantShards += o.WantShards
	s.RepairShards += o.RepairShards
	s.DedupedWants += o.DedupedWants
	s.HeldRepairs += o.HeldRepairs
	s.TreeRounds += o.TreeRounds
	s.EmptyDrills += o.EmptyDrills
	s.RepairRanges += o.RepairRanges
	s.RepairBytes += o.RepairBytes
	s.DigestShardMismatch += o.DigestShardMismatch
	s.DroppedItems += o.DroppedItems
	s.SnapshotsWritten += o.SnapshotsWritten
	s.SnapshotBytes += o.SnapshotBytes
	s.SnapshotRestoredKeys += o.SnapshotRestoredKeys
	s.SnapshotRestoreErrors += o.SnapshotRestoreErrors
	s.RejectedConns += o.RejectedConns
	s.WatchDropped += o.WatchDropped
	if o.SyncWorkers > s.SyncWorkers {
		s.SyncWorkers = o.SyncWorkers // pool widths are not additive
	}
	for i, v := range o.SyncWorkerShards {
		if i < len(s.SyncWorkerShards) {
			s.SyncWorkerShards[i] += v
		} else {
			s.SyncWorkerShards = append(s.SyncWorkerShards, v)
		}
	}
	for i, v := range o.SyncWorkerBusyNs {
		if i < len(s.SyncWorkerBusyNs) {
			s.SyncWorkerBusyNs[i] += v
		} else {
			s.SyncWorkerBusyNs = append(s.SyncWorkerBusyNs, v)
		}
	}
	s.Sent.Add(o.Sent)
	for id, ps := range o.Peers {
		if s.Peers == nil {
			s.Peers = make(map[string]PeerStats)
		}
		cur := s.Peers[id]
		cur.Enqueued += ps.Enqueued
		cur.EnqueuedBytes += ps.EnqueuedBytes
		cur.Dropped += ps.Dropped
		cur.DroppedBytes += ps.DroppedBytes
		cur.DroppedOverflow += ps.DroppedOverflow
		cur.DroppedDial += ps.DroppedDial
		cur.DroppedWrite += ps.DroppedWrite
		cur.DroppedClosing += ps.DroppedClosing
		cur.Coalesced += ps.Coalesced
		cur.Reconnects += ps.Reconnects
		cur.Queued += ps.Queued
		cur.QueuedBytes += ps.QueuedBytes
		cur.State = "" // connection states from different stores are not additive
		s.Peers[id] = cur
	}
}

// shard is one lock domain: a per-object engine (a keyspace partition)
// plus the mutex that serializes access to it. Updates and syncs on keys
// hashing to different shards never contend.
//
// dirty, pending and the digest are read without the mutex (atomically),
// so the sync loop and digest heartbeat skip clean shards without taking
// their locks and digest comparison checks pending lock-free; all are
// only written while holding mu, which keeps the flags coherent with the
// engine state they describe.
type shard struct {
	mu     sync.Mutex
	engine protocol.KeyedEngine
	// od is a per-object engine through its per-object delivery
	// interface, asserted once at construction for the frame-delivery
	// hot path; nil for a δ-stream.
	od protocol.ObjectDeliverer
	// st is the same engine as a δ-stream (EngineAcked), nil for
	// per-object engines.
	st *protocol.Stream
	// dirty marks a shard that needs a Sync visit: touched by a local
	// update or an inbound delivery since its last visit, or — under a
	// per-object engine — still emitting on that visit. A stream shard
	// is dirty only while it holds changes no range has carried yet.
	dirty atomic.Bool
	// retx marks a stream shard with shipped ranges still unacked: it is
	// visited every tick so its retransmission timers are checked.
	retx atomic.Bool
	// broken mirrors st.Broken(), so a matching digest mends the stream
	// without taking the lock when nothing is broken.
	broken atomic.Bool
	// pending marks a per-object shard whose own δs may still be on the
	// wire: set by a local update, then set on each sync visit to
	// whether that visit emitted anything. Inbound deliveries leave it
	// alone. A peer's digest cannot reflect δs it has not received yet,
	// so handleDigests holds repair of a pending shard (bounded by
	// RepairTimeout). Stream shards hold on their streams' state instead.
	pending atomic.Bool
	// digest is the shard's content digest as of the last refresh: the
	// XOR of every cached key hash, which is also the root of the shard's
	// Merkle tree. digestOK holds while no key is marked changed, so the
	// cached value is current and readable without mu.
	digest   atomic.Uint64
	digestOK atomic.Bool
	// hashes caches one hash per key (see leafKeyHash) and changed heads
	// the list of entries marked since the last refresh (see keyHash and
	// refreshLocked).
	hashes  map[string]*keyHash
	changed *keyHash
	// leaf is the Merkle leaf vector repair drill-downs read; nil until
	// the shard's first drill-down, then patched by every refresh.
	leaf []uint64
	// scratch is the encode buffer refreshes reuse across keys.
	scratch []byte
}

// Store is a live replica of a sharded multi-object keyspace: N shards,
// each holding a map of named CRDT objects with its own engine instance,
// mutex, and δ-buffers. Keys are routed to shards by hash; per-shard
// outgoing deltas are coalesced into bounded batched frames per neighbor
// on each sync tick. A per-shard dirty bitmap makes the steady-state tick
// O(dirty shards), not O(shards): clean shards are skipped without taking
// their locks. With DigestEvery set, replicas additionally exchange
// per-shard digest vectors and pull full shards only on mismatch, so even
// divergence invisible to the inner engines is repaired while a converged
// idle cluster exchanges only constant-size heartbeats.
//
// Store follows the deployment model of the paper's Retwis evaluation:
// many independent objects synchronized together — each with its own
// δ-buffer under a per-object engine, or through one acknowledged
// δ-stream per (peer, shard) under an acked engine.
type Store struct {
	cfg       StoreConfig
	net       *peerNet
	shards    []*shard
	mask      uint32
	neighbors []string // sorted peer ids
	ticks     atomic.Uint64
	// deliverLocks counts the shard-lock acquisitions of the inbound
	// delivery path — one per touched shard per frame, an invariant an
	// instrumented test pins (the eager path took one per item).
	deliverLocks atomic.Uint64
	statsMu      sync.Mutex
	stats        StoreStats
	repair       repairTable
	// snapMu serializes snapshot passes (the ticker loop and explicit
	// SnapshotNow calls); snapLast holds each shard's content digest at
	// its last written snapshot, so unchanged shards are skipped. Both
	// are only used when cfg.SnapshotDir is set.
	snapMu   sync.Mutex
	snapLast []uint64
	// workers is the effective shard-work pool width; workerShards and
	// workerBusy are its per-worker claim and busy-time counters (skew
	// diagnostics, surfaced through Stats).
	workers      int
	workerShards []atomic.Uint64
	workerBusy   []atomic.Int64
	// tickPool recycles the parallel tick's per-shard emission capture;
	// digestVecs is a typed free list of digest vectors (a channel, so a
	// Get/Put cycle never allocates).
	tickPool   sync.Pool
	digestVecs chan []uint64
	// clock reads the time the δ-streams' retransmission timers run on;
	// time.Now outside tests. lastTick is the clock at the previous
	// tick, in Unix nanoseconds.
	clock    func() time.Time
	lastTick atomic.Int64
	// acks holds back the stream acks produced while a tick runs, so
	// they follow that tick's digest vector onto the wire.
	acks     ackGate
	stopping chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // syncLoop + watcher pumps
	watchMu  sync.RWMutex
	watchers []*Watcher
	// watcherCount mirrors len(watchers) for the lock-free hasWatchers
	// check on the delivery and update hot paths; written under watchMu.
	watcherCount atomic.Int32
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StartStore binds the listener, builds one per-object engine per shard,
// and launches the accept and synchronization loops. The shard-work pool
// is GOMAXPROCS wide: more workers than cores only adds scheduling.
func StartStore(cfg StoreConfig) (*Store, error) {
	return startStore(cfg, runtime.GOMAXPROCS(0))
}

// startStore is StartStore with an explicit pool width, so tests can
// pin a width independent of the host's core count.
func startStore(cfg StoreConfig, workers int) (*Store, error) {
	if cfg.Factory == nil || cfg.ObjType == nil {
		return nil, fmt.Errorf("transport: StoreConfig needs Factory and ObjType")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	cfg.Shards = nextPow2(cfg.Shards)
	if cfg.MaxFrameBytes <= 0 || cfg.MaxFrameBytes > maxFrameBytes {
		cfg.MaxFrameBytes = maxFrameBytes
	}
	if cfg.RepairTimeout <= 0 {
		cfg.RepairTimeout = defaultRepairTimeout
	}
	if cfg.TreeRepairMinKeys <= 0 {
		cfg.TreeRepairMinKeys = defaultTreeMinKeys
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	neighbors := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		neighbors = append(neighbors, id)
	}
	sort.Strings(neighbors)
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = append([]string{cfg.ID}, neighbors...)
		sort.Strings(nodes)
	}
	queueBytes := cfg.PeerQueueBytes
	if queueBytes <= 0 {
		queueBytes = defaultPeerQueueBytes
	}
	streamOpts := protocol.StreamOptions{
		Chunk: min(maxMsgFor(cfg.MaxFrameBytes, cfg.ID)/2, repairChunkBytes),
		// A peer owing acks for more than its queue's share of a shard
		// is not catching up by retransmission: cut it over to repair.
		MaxLag: max(minStreamLag, queueBytes/cfg.Shards),
	}
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		keyed := protocol.NewShardEngine(cfg.Factory, cfg.ObjType, protocol.Config{
			ID:        cfg.ID,
			Neighbors: neighbors,
			Nodes:     nodes,
		}, streamOpts)
		st, _ := keyed.(*protocol.Stream)
		od, ok := keyed.(protocol.ObjectDeliverer)
		if !ok && st == nil {
			return nil, fmt.Errorf("transport: per-object engine does not implement ObjectDeliverer")
		}
		shards[i] = &shard{engine: keyed, od: od, st: st, hashes: make(map[string]*keyHash), changed: changedEnd}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: snapshot dir: %w", err)
		}
	}
	s := &Store{
		cfg: cfg,
		net: newPeerNet(cfg.ID, cfg.Peers, ln, cfg.Dial, queueConfig{
			frames: cfg.PeerQueueLen,
			bytes:  cfg.PeerQueueBytes,
			// Drain-time coalescing must never assemble a frame the
			// packer would have refused to emit: both budgets come from
			// the same formula.
			maxMsg: maxMsgFor(cfg.MaxFrameBytes, cfg.ID),
		}),
		shards:    shards,
		mask:      uint32(cfg.Shards - 1),
		neighbors: neighbors,
		clock:     time.Now,
		stopping:  make(chan struct{}),
	}
	s.workers = workers
	s.workerShards = make([]atomic.Uint64, s.workers)
	s.workerBusy = make([]atomic.Int64, s.workers)
	s.tickPool.New = func() any {
		return &tickScratch{
			emits: make([][]tickEmit, len(s.shards)),
			bufs:  make([][]byte, len(s.shards)),
		}
	}
	s.digestVecs = make(chan []uint64, 4)
	s.repair = repairTable{
		timeout: cfg.RepairTimeout,
		entries: make([]repairEntry, cfg.Shards),
	}
	if cfg.SnapshotDir != "" {
		// Restore strictly before joining the mesh: the first digest
		// advertisement must describe the restored keyspace, so peers
		// repair only the staleness gap, not the whole keyspace.
		s.snapLast = make([]uint64, cfg.Shards)
		s.restoreSnapshots()
	}
	s.net.start(s.deliver)
	s.wg.Add(1)
	go s.syncLoop()
	if cfg.SnapshotDir != "" {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Store) Addr() string { return s.net.addr() }

// ID returns the replica identifier.
func (s *Store) ID() string { return s.cfg.ID }

// NumShards returns the effective (power-of-two) shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// fnv32a is an allocation-free FNV-1a over a key (hash/fnv's hasher
// escapes through the interface and would allocate on every Update/Get).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardOf routes a key to its shard by FNV-1a hash.
func (s *Store) shardOf(key string) *shard {
	return s.shards[fnv32a(key)&s.mask]
}

// Update applies one local operation to the object named by op.Key.
// Only that key's shard is locked; updates on different shards proceed
// concurrently.
func (s *Store) Update(op workload.Op) {
	sh := s.shardOf(op.Key)
	sh.mu.Lock()
	sh.engine.LocalOp(op)
	sh.markKey(op.Key)
	sh.dirty.Store(true)
	sh.pending.Store(true)
	sh.mu.Unlock()
	if s.hasWatchers() {
		s.notifyWatchers(op.Key)
	}
}

// Get returns a snapshot of one object's state, or nil if the key is
// unknown.
func (s *Store) Get(key string) lattice.State {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.engine.ObjectState(key)
	if st == nil {
		return nil
	}
	return st.Clone()
}

// NumKeys returns the number of distinct objects across all shards.
func (s *Store) NumKeys() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.engine.Keys())
		sh.mu.Unlock()
	}
	return total
}

// Keys returns all object keys, sorted. The per-shard walks fan out
// across the shard-work pool, so a scrape of a huge store does not
// stall the caller for the full serial lock-by-lock walk.
func (s *Store) Keys() []string {
	perShard := make([][]string, len(s.shards))
	s.runShardStage(func(_, i int) {
		sh := s.shards[i]
		sh.mu.Lock()
		if ks := sh.engine.Keys(); len(ks) > 0 {
			perShard[i] = append([]string(nil), ks...)
		}
		sh.mu.Unlock()
	})
	total := 0
	for _, ks := range perShard {
		total += len(ks)
	}
	all := make([]string, 0, total)
	for _, ks := range perShard {
		all = append(all, ks...)
	}
	sort.Strings(all)
	return all
}

// Digest combines the per-shard digests into one 64-bit value. Two stores
// with the same shard count that hold the same keyspace in the same
// states produce equal digests, making convergence checks cheap without
// shipping states around: each shard rehashes only the keys changed
// since its last digest, and clean shards serve theirs from cache. (The
// codec is canonical: equal states encode to equal bytes.)
func (s *Store) Digest() uint64 {
	h := uint64(fnvOffset64)
	var word [8]byte
	for _, sh := range s.shards {
		binary.BigEndian.PutUint64(word[:], sh.contentDigest())
		h = fnvFold(h, word[:])
	}
	return h
}

// Memory aggregates the memory footprint across shards, fanning the
// per-shard walks across the shard-work pool.
func (s *Store) Memory() metrics.Memory {
	partial := make([]metrics.Memory, s.workers)
	s.runShardStage(func(w, i int) {
		sh := s.shards[i]
		sh.mu.Lock()
		m := sh.engine.Memory()
		sh.mu.Unlock()
		partial[w].CRDTBytes += m.CRDTBytes
		partial[w].BufferBytes += m.BufferBytes
		partial[w].MetadataBytes += m.MetadataBytes
	})
	var total metrics.Memory
	for _, m := range partial {
		total.CRDTBytes += m.CRDTBytes
		total.BufferBytes += m.BufferBytes
		total.MetadataBytes += m.MetadataBytes
	}
	return total
}

// Stats returns a snapshot of the wire accounting, including the
// per-peer write-pipeline counters and connection states.
func (s *Store) Stats() StoreStats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.Peers = s.net.peerStats()
	st.RejectedConns = s.net.rejectedConns()
	st.SyncWorkers = s.workers
	st.SyncWorkerShards = make([]uint64, s.workers)
	st.SyncWorkerBusyNs = make([]int64, s.workers)
	for i := range st.SyncWorkerShards {
		st.SyncWorkerShards[i] = s.workerShards[i].Load()
		st.SyncWorkerBusyNs[i] = s.workerBusy[i].Load()
	}
	return st
}

// Ticks returns how many synchronization steps this store has run.
func (s *Store) Ticks() uint64 { return s.ticks.Load() }

// outBatch accumulates per-destination shard items in first-send order.
// perEnc runs parallel to perDest: entry i is item i's pre-encoded
// ShardItem bytes when a pool worker encoded it at capture time (the
// packer ships those verbatim), nil when the packer encodes the item
// itself — every inbound reply and repair path.
type outBatch struct {
	perDest map[string][]protocol.ShardItem
	perEnc  map[string][][]byte
	order   []string
}

func newOutBatch() *outBatch {
	return &outBatch{
		perDest: make(map[string][]protocol.ShardItem),
		perEnc:  make(map[string][][]byte),
	}
}

// add appends one emission, with its pre-encoded bytes when the capture
// already paid for the encode (enc nil otherwise).
func (b *outBatch) add(shardIdx uint32, to string, m protocol.Msg, enc []byte) {
	if len(b.perDest[to]) == 0 {
		b.order = append(b.order, to)
	}
	b.perDest[to] = append(b.perDest[to], protocol.ShardItem{Shard: shardIdx, Msg: m})
	b.perEnc[to] = append(b.perEnc[to], enc)
}

// sender adapts a shard's engine sends into tagged shard items.
func (b *outBatch) sender(shardIdx uint32) protocol.Sender {
	return func(to string, m protocol.Msg) {
		b.add(shardIdx, to, m, nil)
	}
}

// reset clears the batch for reuse, keeping the per-destination slice
// capacity (the items themselves are zeroed so pooled batches do not pin
// message or encode-arena memory between frames).
func (b *outBatch) reset() {
	for _, to := range b.order {
		items := b.perDest[to]
		clear(items)
		b.perDest[to] = items[:0]
		encs := b.perEnc[to]
		clear(encs)
		b.perEnc[to] = encs[:0]
	}
	b.order = b.order[:0]
}

// frameViews pools the unpacked-frame views the inbound path fills per
// frame; a connection at steady state recycles one view (and its item
// slices) across every frame it receives.
var frameViews = sync.Pool{New: func() any { return new(codec.FrameView) }}

// deliverState bundles the per-frame delivery scratch — the outbound
// reply batch, the per-object reply sink, and the Sender method value
// bound to it — so one pool Get covers all three and the method-value
// allocation happens once per pooled instance, not once per frame.
type deliverState struct {
	b    *outBatch
	sink replySink
	send protocol.Sender
	// seen is serveWants' shard-dedup scratch, pooled so hostile or
	// chatty peers don't drive a per-frame allocation.
	seen []bool
	// acks collects the frame's stream acks, one per touched shard.
	acks []protocol.ShardItem
}

// seenShards returns the dedup scratch cleared and sized to n shards.
func (d *deliverState) seenShards(n int) []bool {
	if cap(d.seen) < n {
		d.seen = make([]bool, n)
	}
	d.seen = d.seen[:n]
	clear(d.seen)
	return d.seen
}

var deliverStates = sync.Pool{New: func() any {
	d := &deliverState{b: newOutBatch()}
	d.send = d.sink.send
	return d
}}

func getDeliverState() *deliverState { return deliverStates.Get().(*deliverState) }

func (d *deliverState) release() {
	d.b.reset()
	clear(d.acks)
	d.acks = d.acks[:0]
	d.sink.key = nil // never pin a frame buffer across frames
	deliverStates.Put(d)
}

// replySink collects the replies (acks, Scuttlebutt pulls) the engines
// emit while a shard group is being applied, keyed by destination, and
// flushes them as one BatchMsg per destination per shard group — the
// receive-side mirror of the per-object batcher, without allocating when
// a frame produces no replies (the common delta-based case).
type replySink struct {
	shard   uint32
	key     []byte
	pending map[string][]protocol.ObjectMsg
	order   []string
}

func (d *replySink) send(to string, m protocol.Msg) {
	if d.pending == nil {
		d.pending = make(map[string][]protocol.ObjectMsg)
	}
	if len(d.pending[to]) == 0 {
		d.order = append(d.order, to)
	}
	d.pending[to] = append(d.pending[to], protocol.ObjectMsg{Key: string(d.key), Inner: m})
}

// flush wraps the pending replies into per-destination batches on b. The
// accumulated slices are handed to BatchOf and must not be reused, so the
// map entries are reset to nil rather than truncated.
func (d *replySink) flush(b *outBatch) {
	for _, to := range d.order {
		items := d.pending[to]
		d.pending[to] = nil // BatchOf keeps the slice; never reuse it
		b.sender(d.shard)(to, protocol.BatchOf(items))
	}
	d.order = d.order[:0]
}

// SyncNow runs one synchronization step over the dirty shards and flushes
// the coalesced frames. Clean shards — the steady state of an idle
// keyspace — are skipped without taking their locks, so the tick is
// O(dirty shards). The per-shard work — engine.Sync plus item capture
// and encoding — fans out across the shard-work pool, with frame bytes
// independent of its width. Every DigestEvery ticks the per-shard digest
// vector goes out with the same flush: piggybacked on a data frame to
// each peer that is getting one anyway, as a standalone heartbeat only
// to peers the tick has nothing else to say to (every peer, on an idle
// tick). On those ticks every δ-stream shard's digest is read under the
// lock of the same visit that ships its δs, so the vector describes
// exactly what the tick's frames carry.
func (s *Store) SyncNow() {
	s.acks.begin()
	defer s.acks.end(s)
	s.revive()
	d := getDeliverState()
	defer d.release()
	b := d.b
	tick := s.ticks.Add(1)
	var vec []uint64
	if every := uint64(s.cfg.DigestEvery); every > 0 && tick%every == 0 {
		vec = s.getDigestVec()
		defer s.putDigestVec(vec)
	}
	if ts := s.collectTick(b, vec); ts != nil {
		// The batch's pre-encoded bytes point into the scratch arenas;
		// release only after flush below has packed them into frames.
		defer s.releaseTickScratch(ts)
	}
	covered := s.flush(b, vec)
	if vec == nil {
		return
	}
	// The heartbeat fallback: peers whose data frames this tick did not
	// carry the vector still get the advertisement, standalone.
	m := protocol.NewDigestMsg(vec, nil, protocol.DigestCost(vec, nil))
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	for _, to := range s.neighbors {
		if _, ok := covered[to]; !ok {
			s.transmit(to, data, m.Cost(), frameDigest)
		}
	}
}

// collectTick runs the per-shard sync stage, accumulating every engine
// emission on b in ascending shard order. Workers claim shards off the
// shared cursor, run the engine's sync step on each shard that needs a
// visit under its lock and capture the emissions privately — encoding
// each into the shard's arena as it is captured, so the per-item codec
// work rides the pool too — and the merge replays them in shard order.
// Per-destination item sequences, and therefore packed frame bytes, are
// the same at every pool width (pinned by the determinism test). When
// vec is non-nil it is filled with the shard digests: a δ-stream shard's
// under the lock hold of its visit, since its peers hold repair exactly
// on what its ranges have carried; a per-object shard that needs no
// visit is read lock-free, as is every shard of an idle per-object store
// (allocation-free), and a changed shard rehashes only its changed keys.
//
// The returned scratch is nil only when no shard needed work; otherwise
// the caller must hand it to releaseTickScratch only after flush has
// consumed b (the pre-encoded bytes live in the scratch arenas).
func (s *Store) collectTick(b *outBatch, vec []uint64) *tickScratch {
	now := s.clock()
	// The retransmission timeouts allow one tick of ack delay: the
	// configured period, or the actual one when ticks are driven faster
	// by hand.
	tick := s.cfg.SyncEvery
	if prev := s.lastTick.Swap(now.UnixNano()); prev != 0 && now.UnixNano() > prev {
		tick = min(tick, time.Duration(now.UnixNano()-prev))
	}
	streams := s.shards[0].st != nil
	if (vec == nil || !streams) && !slices.ContainsFunc(s.shards, (*shard).needsVisit) {
		for i := range vec {
			vec[i] = s.shards[i].contentDigest()
		}
		return nil
	}
	ts := s.tickPool.Get().(*tickScratch)
	s.runShardStage(func(_, i int) {
		sh := s.shards[i]
		visit := sh.needsVisit()
		if !visit && (vec == nil || sh.st == nil) {
			if vec != nil {
				vec[i] = sh.contentDigest()
			}
			return
		}
		out := ts.emits[i][:0]
		buf := ts.bufs[i][:0]
		sh.mu.Lock()
		if visit {
			sh.dirty.Store(false)
			emitted := false
			emit := func(to string, m protocol.Msg) {
				emitted = true
				start := len(buf)
				var err error
				buf, err = codec.AppendShardItem(buf, protocol.ShardItem{Shard: uint32(i), Msg: m})
				if err != nil {
					// An engine emitted a message the codec cannot encode:
					// a programming error in the engine/codec pairing.
					panic(err)
				}
				out = append(out, tickEmit{to: to, m: m, enc: buf[start:]})
			}
			if sh.st != nil {
				sh.st.SyncAt(now, tick, emit)
				sh.retx.Store(sh.st.Outstanding())
				sh.broken.Store(sh.st.Broken())
			} else {
				sh.engine.Sync(emit)
				if emitted {
					// The engine may need to emit again (Scuttlebutt
					// digests, say): revisit next tick.
					sh.dirty.Store(true)
				}
				sh.pending.Store(emitted)
			}
		}
		if vec != nil {
			vec[i] = sh.refreshLocked()
		}
		sh.mu.Unlock()
		ts.emits[i] = out
		ts.bufs[i] = buf
	})
	for i, out := range ts.emits {
		for _, e := range out {
			b.add(uint32(i), e.to, e.m, e.enc)
		}
	}
	return ts
}

// needsVisit reports whether a tick must run the shard's sync step:
// it holds unsent changes, or unacked ranges whose timers need checking.
func (sh *shard) needsVisit() bool { return sh.dirty.Load() || sh.retx.Load() }

// flush packs the accumulated items into bounded frames per destination
// and transmits them; vec, when non-nil, is piggybacked onto one frame
// per destination when it fits, and the returned set names the peers it
// reached. Callers must not hold any shard lock: a slow peer can then
// never block updates or inbound handling on other connections.
func (s *Store) flush(b *outBatch, vec []uint64) map[string]struct{} {
	var covered map[string]struct{}
	for _, to := range b.order {
		res, err := packFrames(b.perDest[to], b.perEnc[to], vec, s.maxMsgBytes())
		if err != nil {
			// Engines produced an unencodable message: a programming
			// error in the engine/codec pairing.
			panic(err)
		}
		s.statsMu.Lock()
		if len(res.frames) > 1 {
			s.stats.SplitFrames += len(res.frames)
		}
		s.stats.OversizedDropped += res.oversized
		s.statsMu.Unlock()
		for _, f := range res.frames {
			kind := frameData
			if f.digests {
				kind = framePiggyback
			}
			s.transmit(to, f.data, f.cost, kind)
		}
		if res.digestsAttached {
			if covered == nil {
				covered = make(map[string]struct{})
			}
			covered[to] = struct{}{}
		}
	}
	return covered
}

// maxMsgFor is the largest encoded message that still fits one frame
// under the given cap once the frame header (2-byte sender length plus
// the sender id; the 4-byte length prefix is not counted against the cap
// by receivers) is accounted for. Both the packer's frame budget and the
// write pipeline's coalescing budget derive from it.
func maxMsgFor(maxFrame int, id string) int {
	return maxFrame - 2 - len(id)
}

func (s *Store) maxMsgBytes() int {
	return maxMsgFor(s.cfg.MaxFrameBytes, s.cfg.ID)
}

// frameKind classifies a frame for the wire accounting.
type frameKind int

const (
	// frameData carries shard items only.
	frameData frameKind = iota
	// frameDigest is a standalone DigestMsg (heartbeat or shard request).
	frameDigest
	// framePiggyback carries shard items plus the digest vector.
	framePiggyback
	// frameAck carries δ-stream acks only.
	frameAck
)

// transmit enqueues one frame onto the peer's write pipeline and records
// wire stats at enqueue time (a dedicated writer goroutine performs the
// actual dial and write, so stats here count frames handed to the
// pipeline). A frame lost downstream — queue overflow, failed dial or
// write — shows up in Stats().Peers[to].Dropped; the neighbor catches up
// on a later tick when the inner engines resend (acked engines retransmit
// until acknowledged) or when digest anti-entropy observes the
// divergence. Pair plain delta-based without digests with this transport
// only where loss is acceptable.
func (s *Store) transmit(to string, data []byte, cost metrics.Transmission, kind frameKind) {
	if err := s.net.transmit(to, data); err != nil {
		return // neighbor down or unknown; repaired on a later tick
	}
	s.statsMu.Lock()
	s.stats.Frames++
	s.stats.WireBytes += 4 + 2 + len(s.cfg.ID) + len(data)
	switch kind {
	case frameDigest:
		s.stats.DigestFrames++
	case framePiggyback:
		s.stats.PiggybackedDigests++
	case frameAck:
		s.stats.AckFrames++
	}
	s.stats.Sent.Add(cost)
	s.statsMu.Unlock()
}

// deliver routes one inbound frame to its handler: sharded data frames
// through the single-pass unpacker straight to their shards, anything
// else (standalone digest frames) through the eager decoder. The frame
// bytes alias the connection's read buffer and are only valid during the
// call, so the view is reset before it returns to the pool. A non-nil
// error drops the connection (corrupt peer).
func (s *Store) deliver(from string, frame []byte) error {
	v := frameViews.Get().(*codec.FrameView)
	err := codec.UnpackFrame(frame, len(s.shards), v)
	switch {
	case err == nil:
		err = s.deliverSharded(from, v)
	case errors.Is(err, codec.ErrNotSharded):
		err = s.deliverControl(from, frame)
	}
	v.Reset() // drop references to the read buffer before pooling
	frameViews.Put(v)
	return err
}

// deliverSharded applies one unpacked data frame. Each touched shard's
// lock is taken exactly once per frame — the whole group of that shard's
// items (across every batch in the frame) is decoded and applied under
// the single hold — instead of once per item as the eager path did, and
// replies are coalesced per shard group just as syncs are. Replies flush
// inline on the read goroutine: transmit is a non-blocking enqueue onto
// the per-peer write pipelines, so no TCP write happens here and two
// nodes with mutually full send buffers cannot deadlock each other — the
// hazard that used to force a goroutine per inbound frame. δ-stream
// ranges are acknowledged as soon as the frame is applied, one
// cumulative watermark per touched shard in one compact frame.
func (s *Store) deliverSharded(from string, v *codec.FrameView) error {
	d := getDeliverState()
	defer d.release()
	watched := s.hasWatchers()
	var derr error
	for _, g := range v.Groups() {
		sh := s.shards[g.Shard]
		d.sink.shard = g.Shard
		data := false
		sh.mu.Lock()
		s.deliverLocks.Add(1)
		if sh.st != nil {
			data, derr = s.applyStream(sh, from, g, d)
		} else {
			data = true
			derr = s.applyObjects(sh, from, g, d)
			sh.dirty.Store(true)
		}
		sh.mu.Unlock()
		d.sink.flush(d.b)
		if data {
			// Data from the peer a repair was requested from completes
			// that repair (ordinary deltas may also clear it
			// incidentally; the next heartbeat then re-evaluates).
			s.repair.clearFrom(int(g.Shard), from)
		}
		if derr != nil {
			break
		}
		if watched {
			s.notifyGroup(g)
		}
	}
	if v.Dropped > 0 {
		s.statsMu.Lock()
		s.stats.DroppedItems += v.Dropped
		s.statsMu.Unlock()
	}
	if derr == nil {
		// A piggybacked digest vector is an advertisement like any other,
		// compared after the frame's own items have been merged (they are
		// part of the state the digests describe). A frame that failed
		// mid-decode gets no such trust: its digests are skipped.
		s.handleDigests(from, v.Digests)
	}
	// Flush even on error: the replies and acks coalesced here belong to
	// shard groups that were fully applied — dropping them would discard
	// acks and pull replies the peers are owed.
	if len(d.b.order) > 0 {
		s.flush(d.b, nil)
	}
	if len(d.acks) > 0 {
		s.acks.send(s, from, d.acks)
	}
	return derr
}

// applyObjects applies one shard group to a per-object engine. Caller
// holds sh.mu.
func (s *Store) applyObjects(sh *shard, from string, g codec.ItemGroup, d *deliverState) error {
	for i := range g.Items {
		iv := &g.Items[i]
		m, err := iv.Msg()
		if err != nil {
			// The skip walker accepted what the decoder rejects: a codec
			// bug, surfaced loudly by dropping the connection. The
			// partial application is harmless — deliveries are
			// idempotent joins and the peer resends on reconnect.
			return err
		}
		if iv.Key == nil {
			// A keyless (non-batch) item: hand it to the engine whole,
			// exactly as the eager path did (perObject ignores it).
			sh.engine.Deliver(from, m, d.b.sender(g.Shard))
			continue
		}
		d.sink.key = iv.Key
		sh.od.DeliverObject(from, iv.Key, m, d.send)
		sh.markKeyBytes(iv.Key)
	}
	return nil
}

// applyStream applies one shard group to a δ-stream shard: each range's
// keys are joined in, then the range advances the peer's receive
// watermark; acks advance the outbound streams. When the group carried
// ranges, the shard's watermark is queued on d.acks. It reports whether
// the group carried object data. Caller holds sh.mu.
func (s *Store) applyStream(sh *shard, from string, g codec.ItemGroup, d *deliverState) (data bool, err error) {
	var rng *codec.ItemView
	var wm uint64
	acked, changed, known := false, false, false
	received := func() {
		if rng != nil {
			wm, known = sh.st.Received(from, rng.Start, rng.End)
		}
	}
	for i := range g.Items {
		iv := &g.Items[i]
		if iv.IsRange() {
			received()
			rng = iv
			continue
		}
		if seq, ok := iv.Ack(); ok {
			sh.st.Ack(from, seq, s.clock())
			acked = true
			continue
		}
		if iv.Key == nil {
			continue // a bare engine message: the stream has none
		}
		data = true
		delta, err := iv.State()
		if err != nil {
			s.streamApplied(sh, changed, acked)
			return data, err // a codec bug, as in applyObjects
		}
		if delta != nil && sh.st.Apply(from, iv.Key, delta) {
			sh.markKeyBytes(iv.Key)
			changed = true
		}
	}
	received()
	s.streamApplied(sh, changed, acked)
	if known {
		d.acks = append(d.acks, protocol.ShardItem{Shard: g.Shard, Msg: &protocol.StreamAckMsg{Seq: wm}})
	}
	return data, nil
}

// streamApplied refreshes a stream shard's lock-free flags after a
// delivery. Caller holds sh.mu.
func (s *Store) streamApplied(sh *shard, changed, acked bool) {
	if changed {
		sh.dirty.Store(true)
	}
	if acked {
		sh.retx.Store(sh.st.Outstanding())
	}
	sh.broken.Store(sh.st.Broken())
}

// notifyGroup offers the keys one shard group's items touched to the
// registered watchers. Pure acknowledgements and anti-entropy digests
// carry no state, so their items are skipped — classified by wire tag,
// without decoding; everything else notifies conservatively — a delivery
// the engine found redundant still counts as a (coalesced) change.
func (s *Store) notifyGroup(g codec.ItemGroup) {
	for i := range g.Items {
		iv := &g.Items[i]
		if iv.Key == nil || codec.IsAckTag(iv.Tag()) {
			continue
		}
		s.notifyWatchers(string(iv.Key))
	}
}

// deliverControl handles the non-sharded frames a store speaks: the
// standalone DigestMsg (advertisement heartbeat or shard request) and
// the TreeMsg drill-down steps. Anything else well-formed is ignored,
// preserving the eager path's tolerance; undecodable bytes drop the
// connection.
func (s *Store) deliverControl(from string, frame []byte) error {
	msg, _, err := codec.DecodeMsg(frame)
	if err != nil {
		return err
	}
	d := getDeliverState()
	defer d.release()
	switch m := msg.(type) {
	case *protocol.DigestMsg:
		s.serveWants(from, m.Want, d.seenShards(len(s.shards)))
		s.handleDigests(from, m.Digests)
	case *protocol.TreeMsg:
		s.handleTree(from, m)
	}
	return nil
}

// serveWants answers a peer's shard requests: each validly requested
// shard is streamed once, in full. seen is the caller's pooled dedup
// scratch, sized by the shard count and never by the attacker-controlled
// request length: a hostile Want list of millions of duplicate indices
// must not amplify into allocation or work.
func (s *Store) serveWants(from string, want []uint32, seen []bool) {
	r := repairShip{s: s, to: from}
	served := 0
	bytes := 0
	for _, idx := range want {
		if int(idx) >= len(s.shards) || seen[idx] {
			continue // hostile or stale request; serve each shard once
		}
		seen[idx] = true
		if n := s.serveShard(&r, idx, nil); n > 0 {
			served++
			bytes += n
		}
	}
	r.ship()
	if served > 0 {
		s.statsMu.Lock()
		s.stats.RepairShards += served
		s.stats.RepairBytes += bytes
		s.statsMu.Unlock()
	}
}

// repairChunkBytes caps the key+state payload cloned and shipped per
// repair chunk, for full-shard pulls and tree-range Wants alike. A
// wide-divergence repair on a large shard — restoring a peer from a
// stale snapshot is exactly this workload — would otherwise materialize
// its whole answer as one monolithic batch; chunking bounds the clone
// held in memory and the shard-lock hold time to one chunk at a time.
const repairChunkBytes = 1 << 20

// repairShip gathers repair chunks toward one peer across the shards of
// one Want, so a Want for several small shards is answered with one
// frame instead of a burst of one frame per shard — a burst that could
// overflow the peer's queue and drop frames on a healthy link.
type repairShip struct {
	s       *Store
	to      string
	b       *outBatch
	pending int // key+state bytes gathered in b and not yet shipped
}

// ship flushes the gathered chunks. It must not run under a shard lock.
func (r *repairShip) ship() {
	if r.b == nil || len(r.b.order) == 0 {
		return
	}
	r.s.flush(r.b, nil)
	r.b.reset()
	r.pending = 0
}

// serveShard streams one shard's contents to a peer as a sequence of
// bounded BatchMsgs of per-key δ-groups carrying whole object states:
// every key when leaves is nil, else the keys in the marked Merkle
// leaves. A full state is a valid δ-group, so the receiver merges each
// chunk through the ordinary per-object delivery path (RR extracts
// exactly the missing part) and propagates anything new onwards. The key
// list is copied once up front; the shard lock is released between
// chunks (the keyspace is grow-only, and a state mutated meanwhile ships
// its newer value — anti-entropy never needs a point-in-time cut).
// Chunks gather on r and ship whenever a chunk's budget fills. Returns
// the key+state payload bytes gathered.
func (s *Store) serveShard(r *repairShip, idx uint32, leaves *treeBitmap) int {
	sh := s.shards[idx]
	sh.mu.Lock()
	var keys []string
	if leaves == nil {
		keys = append(keys, sh.engine.Keys()...)
	} else {
		for _, k := range sh.engine.Keys() {
			if leaves.has(treeLeafIdx(k)) {
				keys = append(keys, k)
			}
		}
	}
	sh.mu.Unlock()
	budget := min(s.maxMsgBytes()/2, repairChunkBytes)
	total := 0
	for i := 0; i < len(keys); {
		var items []protocol.ObjectMsg
		bytes := 0
		sh.mu.Lock()
		for i < len(keys) {
			st := sh.engine.ObjectState(keys[i])
			if st == nil {
				i++ // unreachable today (grow-only keyspace); skip defensively
				continue
			}
			sz := len(keys[i]) + st.SizeBytes()
			if r.pending+bytes > 0 && r.pending+bytes+sz > budget {
				break // chunk full; an oversized single object still ships alone
			}
			st = st.Clone() // the message outlives the lock
			bytes += sz
			items = append(items, protocol.ObjectMsg{
				Key: keys[i],
				Inner: protocol.NewDeltaMsg(st, metrics.Transmission{
					Messages:     1,
					Elements:     st.Elements(),
					PayloadBytes: st.SizeBytes(),
				}),
			})
			i++
		}
		sh.mu.Unlock()
		if len(items) > 0 {
			if r.b == nil {
				r.b = newOutBatch()
			}
			r.b.sender(idx)(r.to, protocol.BatchOf(items))
			r.pending += bytes
			total += bytes
		}
		if i < len(keys) {
			r.ship() // the chunk is full: ship it before reading on
		}
	}
	return total
}

func (s *Store) syncLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-ticker.C:
			s.SyncNow()
		}
	}
}

// Close stops the loops, closes every watcher (their Events channels
// close) and every connection. It is idempotent.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stopping) })
	s.closeWatchers()
	err := s.net.close()
	s.wg.Wait()
	return err
}
