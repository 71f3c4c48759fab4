package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const (
	markerEvery = 5 * time.Millisecond // one marker increment per slot, origins in turn
	pollEvery   = time.Millisecond
	restartAt   = 0.3 // restart-catchup: share of the window before the replica closes
	restartDown = 2 * time.Second
	costSlice   = time.Second // the cost sampler's period
)

// samples are the load's per-call timings in nanoseconds. lat is from
// when the call was due to when it returned; svc from call start to
// return.
type samples struct {
	writeLat, writeSvc []int64
	readLat, readSvc   []int64
	lag                []int64 // generator lateness: call start minus due
	visible            []int64 // marker due at its origin → seen on a remote replica
}

// load is one timed window: the open-loop generator, the visibility
// poller and, on restart-catchup, the restart controller.
type load struct {
	c     *cluster
	in    *inputs
	exp   *expect
	epoch time.Time // window start; all offsets are from here
	endNs int64     // schedule end

	gen samples // generator-owned
	pol samples // poller-owned (reads and visibility)

	issued  int          // workload ops issued
	updates atomic.Int64 // update calls: workload writes plus marker increments
	genEnd  int64
	costs   []costSample // sampler-owned until run's stop function returns

	// Marker bookkeeping. markerDue[o][j] is the due offset of origin
	// o's j-th window marker (counter value markerBase+1+j); markers[o]
	// publishes how many were issued.
	markerDue [replicas][]atomic.Int64
	markers   [replicas]atomic.Int64
	seen      [replicas][replicas]uint64 // poller-owned: [replica][origin]
	allSeen   atomic.Bool
	genDone   atomic.Bool

	// Restart bookkeeping (restart-catchup only).
	restartIdx              int
	downDone                chan struct{}
	restartErr              error
	snapshotMs, restoreMs   float64
	snapshotBytes, restored int
	catchup                 time.Duration
}

func newLoad(c *cluster, exp *expect) *load {
	l := &load{c: c, in: c.in, exp: exp}
	l.endNs = int64(c.in.seconds * 1e9)
	slots := int(l.endNs/int64(markerEvery))/replicas + 2
	for o := range l.markerDue {
		l.markerDue[o] = make([]atomic.Int64, slots)
	}
	for r := range l.seen {
		for o := range l.seen[r] {
			l.seen[r][o] = markerBase
		}
	}
	n := c.in.nOps
	l.gen.writeLat = make([]int64, 0, n)
	l.gen.writeSvc = make([]int64, 0, n)
	l.gen.readLat = make([]int64, 0, n)
	l.gen.readSvc = make([]int64, 0, n)
	l.gen.lag = make([]int64, 0, n)
	return l
}

func (l *load) now() int64 { return int64(time.Since(l.epoch)) }

// sleepUntil sleeps to the given offset. The timer wakes about a
// millisecond late for short waits, so callers issue everything due at
// each wakeup.
func (l *load) sleepUntil(ns int64) {
	if d := ns - l.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// run executes the window and returns once the generator has issued the
// last op due before the end; the poller keeps running until stopPoll.
func (l *load) run() (stopPoll func()) {
	l.epoch = time.Now()
	if l.c.tr != nil {
		l.c.tr.begin(l.epoch)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); l.poll(stop) }()
	wg.Add(1)
	go func() { defer wg.Done(); l.sampleCosts() }()
	if l.in.restart {
		l.downDone = make(chan struct{})
		l.restartIdx = replicas - 1
		wg.Add(1)
		go func() { defer wg.Done(); l.restart() }()
	}
	l.generate()
	l.genDone.Store(true)
	if l.c.tr != nil {
		l.c.tr.end(l.now())
	}
	return func() { close(stop); wg.Wait() }
}

func (l *load) generate() {
	var buf *spanBuf
	if l.c.tr != nil {
		buf = l.c.tr.newBuf()
	}
	i, slot := 0, 0
	mkEvery := int64(markerEvery)
	for {
		wake := l.now()
		batch := uint64(0)
		if buf != nil {
			batch = buf.open(nameGenBatch, 0, wake)
		}
		l.c.gate.RLock()
		for {
			opDue, mkDue := int64(math.MaxInt64), int64(slot)*mkEvery
			if i < len(l.in.ops) {
				opDue = l.in.dueNs(i)
			}
			if mkDue >= l.endNs {
				mkDue = math.MaxInt64
			}
			due := min(opDue, mkDue)
			if due == math.MaxInt64 || due > l.now() {
				break
			}
			if opDue <= mkDue {
				l.issueOp(buf, batch, l.in.ops[i], opDue)
				i++
			} else {
				l.issueMarker(buf, batch, slot, mkDue)
				slot++
			}
		}
		l.c.gate.RUnlock()
		if buf != nil {
			buf.close(batch, l.now())
		}
		next := int64(math.MaxInt64)
		if i < len(l.in.ops) {
			next = l.in.dueNs(i)
		}
		if m := int64(slot) * mkEvery; m < l.endNs {
			next = min(next, m)
		}
		if next == math.MaxInt64 {
			break
		}
		l.sleepUntil(next)
	}
	l.genEnd = l.now()
}

// target returns the live replica an op for origin o goes to: o itself,
// or the next replica while o is down.
func (l *load) target(o int) *replica {
	for k := 0; k < replicas; k++ {
		if r := l.c.reps[(o+k)%replicas].Load(); r != nil {
			return r
		}
	}
	return nil
}

func (l *load) issueOp(buf *spanBuf, batch uint64, o op, due int64) {
	r := l.target(int(o.origin))
	o.origin = uint8(r.idx)
	start := l.now()
	l.in.issue(r, o)
	end := l.now()
	if buf != nil {
		buf.add(opNames[o.kind], batch, 0, start, end)
	}
	l.gen.lag = append(l.gen.lag, start-due)
	if o.isWrite() {
		l.exp.apply(o)
		l.updates.Add(1)
		l.gen.writeLat = append(l.gen.writeLat, end-due)
		l.gen.writeSvc = append(l.gen.writeSvc, end-start)
	} else {
		l.gen.readLat = append(l.gen.readLat, end-due)
		l.gen.readSvc = append(l.gen.readSvc, end-start)
	}
	l.issued++
}

// issueMarker increments origin slot%replicas's marker, recording its due
// time first so the poller can time it. A down origin skips its slot.
// The increment is an update call like any other and is timed as one.
func (l *load) issueMarker(buf *spanBuf, batch uint64, slot int, due int64) {
	o := slot % replicas
	r := l.c.reps[o].Load()
	if r == nil {
		return
	}
	j := l.markers[o].Load()
	l.markerDue[o][j].Store(due)
	start := l.now()
	r.markers[o].Inc(1)
	end := l.now()
	if buf != nil {
		buf.addMarker(markerTrace(o, j), batch, start, end)
	}
	l.markers[o].Store(j + 1)
	l.updates.Add(1)
	l.gen.writeLat = append(l.gen.writeLat, end-due)
	l.gen.writeSvc = append(l.gen.writeSvc, end-start)
}

func markerTrace(o int, j int64) uint64 { return uint64(j)<<2 | uint64(o) | 1<<62 }

// poll reads every marker on every other replica each millisecond slot.
// A jump from a to b makes markers a+1..b visible at that read. Reads
// during the window count as read calls, timed from their slot.
func (l *load) poll(stop <-chan struct{}) {
	var buf *spanBuf
	if l.c.tr != nil {
		buf = l.c.tr.newBuf()
	}
	every := int64(pollEvery)
	for k := int64(0); ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		due := k * every
		if now := l.now(); now-due >= every {
			k = now / every // skip missed slots, serve the latest
			due = k * every
		}
		l.sleepUntil(due)
		inWindow := !l.genDone.Load()
		var round uint64
		if buf != nil && inWindow {
			round = buf.open(namePollRound, 0, l.now())
		}
		all := l.genDone.Load()
		l.c.gate.RLock()
		for ri := range l.c.reps {
			r := l.c.reps[ri].Load()
			if r == nil {
				all = false
				continue
			}
			for o := 0; o < replicas; o++ {
				if o == ri {
					continue
				}
				start := l.now()
				v := r.markers[o].Value()
				end := l.now()
				if inWindow {
					l.pol.readLat = append(l.pol.readLat, end-due)
					l.pol.readSvc = append(l.pol.readSvc, end-start)
				}
				for m := l.seen[ri][o] + 1; m <= v; m++ {
					j := int64(m) - markerBase - 1
					if j >= l.markers[o].Load() {
						break // not ours (cannot happen), or not yet published
					}
					mdue := l.markerDue[o][j].Load()
					l.pol.visible = append(l.pol.visible, end-mdue)
					if buf != nil {
						buf.addVisible(markerTrace(o, j), ri, end)
					}
					l.seen[ri][o] = m
				}
				if l.seen[ri][o] != markerBase+uint64(l.markers[o].Load()) {
					all = false
				}
			}
		}
		l.c.gate.RUnlock()
		if buf != nil && inWindow {
			buf.close(round, l.now())
		}
		l.allSeen.Store(all)
	}
}

// costSample is the cumulative cost at one instant of the window.
type costSample struct {
	cpu     int64 // process CPU, ns
	wire    int   // cluster wire bytes
	updates int64
}

// sampleCosts records the cumulative cost at the window start and at
// every costSlice boundary inside the window.
func (l *load) sampleCosts() {
	for k := int64(0); k*int64(costSlice) <= l.endNs; k++ {
		l.sleepUntil(k * int64(costSlice))
		l.costs = append(l.costs, costSample{cpuNs(), totalsOf(l.c.stats()).wire, l.updates.Load()})
	}
}

// perUpdate is the mid-mean over the sampled slices of each slice's
// cost per update; ok is false when the window held no whole slice.
func (l *load) perUpdate(cost func(costSample) float64) (v float64, ok bool) {
	var per []float64
	for i := 1; i < len(l.costs); i++ {
		a, b := l.costs[i-1], l.costs[i]
		if n := b.updates - a.updates; n > 0 {
			per = append(per, (cost(b)-cost(a))/float64(n))
		}
	}
	return midMean(per), len(per) > 0
}

// restart snapshots replica restartIdx, closes it while the load goes
// on, and reopens it over its snapshot on the same address. catchup is
// the time from the reopen until the replica holds every counter
// increment the generator had issued before it.
func (l *load) restart() {
	defer close(l.downDone)
	i := l.restartIdx
	l.sleepUntil(int64(float64(l.endNs) * restartAt))
	// Route the load away first, so every write the replica took is in
	// its snapshot.
	r := l.c.detach(i)
	t := time.Now()
	err := r.st.SnapshotNow()
	l.snapshotMs = float64(time.Since(t).Nanoseconds()) / 1e6
	l.snapshotBytes = r.st.Stats().SnapshotBytes
	l.c.retire(r)
	if err != nil {
		l.restartErr = err
		return
	}
	time.Sleep(restartDown)
	// Freeze the expectation: the generator only writes exp under the
	// gate, so holding it exclusively gives a consistent copy.
	l.c.gate.Lock()
	want := append([]uint64(nil), l.exp.count...)
	var marks [replicas]uint64
	for o := range marks {
		marks[o] = markerBase + uint64(l.markers[o].Load())
	}
	l.c.gate.Unlock()
	d, err := l.c.reopen(i)
	if err != nil {
		l.restartErr = err
		return
	}
	reopened := time.Now()
	l.restoreMs = float64(d.Nanoseconds()) / 1e6
	nr := l.c.reps[i].Load()
	l.restored = nr.st.Stats().SnapshotRestoredKeys
	next := 0 // counters reach their target once and stay there
	err = pollUntil(time.Now().Add(phaseDeadline), func() bool {
		for o := range marks {
			if o != i && nr.markers[o].Value() < marks[o] {
				return false
			}
		}
		for ; next < len(want); next++ {
			if nr.counters[next].Value() < want[next] {
				return false
			}
		}
		return true
	})
	if err != nil {
		l.restartErr = err
		return
	}
	l.catchup = time.Since(reopened)
}

// drain waits, after the window, until every marker is visible
// everywhere and the replicas have converged, or the deadline passes.
func (l *load) drain(deadline time.Time) bool {
	if l.downDone != nil {
		<-l.downDone
	}
	return pollUntil(deadline, func() bool {
		return l.allSeen.Load() && l.c.converged(-1)
	}) == nil
}
