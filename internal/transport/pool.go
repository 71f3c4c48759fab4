package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"crdtsync/internal/protocol"
)

// This file is the shard-work pool: the bounded set of workers the
// CPU-heavy per-shard stages — the sync tick with its item encoding,
// snapshot encoding, and the Keys and Memory walks — fan out across.
// Shards were designed as independent lock domains precisely so these
// stages parallelize: nothing crosses shards until frames are packed per
// destination or files are written, so workers claim shards off a
// shared cursor, do each shard's work under that shard's own lock, and
// a single coordinator merges the results in shard order wherever
// ordering is observable (frame bytes, file writes). The pool is
// GOMAXPROCS wide, fixed when the store starts; each stage has one code
// path at every width, and at width 1 it runs inline on the calling
// goroutine. Digests and Merkle leaves need no stage: each shard
// patches them incrementally from its changed keys.

// runShardStage fans fn(worker, shard) over the whole shard index space
// on up to s.workers workers, the calling goroutine serving as worker 0 —
// so a one-worker store spawns no goroutines and a stage never costs
// more than its serial form plus two clock reads. Workers claim indices
// off a shared atomic cursor, so load balances dynamically: a worker
// stuck on one huge shard never strands the shards behind it. Per-worker
// claim counts and busy time feed the skew stats.
func (s *Store) runShardStage(fn func(worker, shard int)) {
	n := len(s.shards)
	var cursor atomic.Int64
	work := func(worker int) {
		start := time.Now()
		claimed := uint64(0)
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				break
			}
			fn(worker, i)
			claimed++
		}
		if claimed > 0 {
			s.workerShards[worker].Add(claimed)
		}
		s.workerBusy[worker].Add(int64(time.Since(start)))
	}
	workers := min(n, s.workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(w)
	}
	work(0)
	wg.Wait()
}

// tickEmit is one engine emission captured during a tick, replayed in
// ascending shard order by the merge so per-destination item sequences
// — and therefore packed frame bytes — do not depend on the pool width.
// enc is the emission's ShardItem encoding, produced by the capturing
// worker (pointing into its shard's arena in tickScratch.bufs) so the
// packer ships it verbatim instead of re-encoding on the coordinator.
type tickEmit struct {
	to  string
	m   protocol.Msg
	enc []byte
}

// tickScratch is the pooled per-tick capture: one emission slice and
// one encode arena per shard, filled without locks by whichever worker
// claims the shard (indices are disjoint), drained by the merge. The
// scratch stays checked out until flush has packed the pre-encoded
// bytes into frames (releaseTickScratch), and release clears every
// entry so pooled scratch never pins message memory between ticks.
type tickScratch struct {
	emits [][]tickEmit
	bufs  [][]byte
}

// releaseTickScratch clears a tick capture and returns it to the pool.
// Callers must be past flush: tickEmit.enc slices point into bufs, and
// a recycled scratch overwrites them.
func (s *Store) releaseTickScratch(ts *tickScratch) {
	for i := range ts.emits {
		if len(ts.emits[i]) == 0 {
			continue
		}
		clear(ts.emits[i])
		ts.emits[i] = ts.emits[i][:0]
		ts.bufs[i] = ts.bufs[i][:0]
	}
	s.tickPool.Put(ts)
}

// getDigestVec hands out a per-shard digest vector from the store's
// free list. The free list is a typed channel rather than a sync.Pool
// so that a Get/Put cycle is allocation-free (boxing a slice in an
// interface allocates) — the clean-store digest path is pinned at zero
// allocations.
func (s *Store) getDigestVec() []uint64 {
	select {
	case v := <-s.digestVecs:
		return v
	default:
		return make([]uint64, len(s.shards))
	}
}

// putDigestVec returns a vector once nothing can reference it — frame
// packing copies the digest vector into frame bytes synchronously, so
// after flush returns the vector is free.
func (s *Store) putDigestVec(v []uint64) {
	select {
	case s.digestVecs <- v:
	default:
	}
}
