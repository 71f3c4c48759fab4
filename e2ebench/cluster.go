package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crdtsync"
)

// The fixed system configuration every result is measured at.
const (
	replicas    = 3
	shards      = 64
	syncEvery   = 100 * time.Millisecond
	digestEvery = 4
	markerBase  = 1      // set-up leaves every marker counter at 1
	preloadRate = 5000.0 // set-up writes per second
	// phaseDeadline bounds each set-up's convergence and the drain, so a
	// run that cannot converge still ends well within three minutes.
	phaseDeadline = 30 * time.Second
)

func configSummary() string {
	return fmt.Sprintf("%d replicas, full mesh on 127.0.0.1, engine acked, WithShards(%d), WithSyncEvery(%v), WithDigestEvery(%d), other options default",
		replicas, shards, syncEvery, digestEvery)
}

// replica is one open store plus the handles the load calls through,
// built once so the timed path allocates no key strings of its own.
type replica struct {
	idx      int
	st       *crdtsync.Store
	counters []crdtsync.Counter
	sets     []crdtsync.Set
	maps     []crdtsync.Map
	markers  [replicas]crdtsync.Counter
}

func newReplica(idx int, st *crdtsync.Store, in *inputs, ids []string) *replica {
	r := &replica{idx: idx, st: st}
	r.counters = make([]crdtsync.Counter, in.keys)
	if in.mixed || in.ingest {
		r.sets = make([]crdtsync.Set, in.keys)
		r.maps = make([]crdtsync.Map, in.keys)
	}
	for k, name := range in.names {
		switch in.family(k) {
		case famCounter:
			r.counters[k] = st.Counter(name)
		case famSet:
			r.sets[k] = st.Set(name)
		default:
			r.maps[k] = st.Map(name)
		}
	}
	for o := range r.markers {
		r.markers[o] = st.Counter("mk/" + ids[o])
	}
	return r
}

// cluster is three replicas in a full mesh. reps holds the live replica
// of each slot; a slot is nil while its replica is closed for a restart.
// gate orders a restart against in-flight calls: every caller of a
// replica holds it shared for the duration of its call.
type cluster struct {
	in      *inputs
	tr      *tracer // nil for an untraced run
	snapDir string  // "" without snapshots
	ids     []string
	addrs   []string
	reps    [replicas]atomic.Pointer[replica]
	gate    sync.RWMutex
	retMu   sync.Mutex
	retired crdtsync.Stats // counters of replicas closed for a restart

	tickStop chan struct{}
	tickWG   sync.WaitGroup
}

func (c *cluster) options(i int) []crdtsync.Option {
	peers := map[string]string{}
	for j, id := range c.ids {
		if j != i {
			peers[id] = c.addrs[j]
		}
	}
	opts := []crdtsync.Option{
		crdtsync.WithID(c.ids[i]),
		crdtsync.WithPeers(peers),
		crdtsync.WithEngine(crdtsync.EngineAcked),
		crdtsync.WithShards(shards),
		crdtsync.WithSyncEvery(syncEvery),
		crdtsync.WithDigestEvery(digestEvery),
	}
	if c.snapDir != "" {
		opts = append(opts, crdtsync.WithSnapshotDir(filepath.Join(c.snapDir, c.ids[i])))
	}
	if c.tr != nil {
		// The traced run drives ticks itself (see runTicker), and takes
		// its snapshots explicitly.
		opts = append(opts, crdtsync.WithSyncEvery(time.Hour), crdtsync.WithDial(c.tr.dial))
		if c.snapDir != "" {
			opts = append(opts, crdtsync.WithSnapshotEvery(time.Hour))
		}
	}
	return opts
}

func openCluster(in *inputs, tr *tracer, snapDir string) (*cluster, error) {
	c := &cluster{in: in, tr: tr, snapDir: snapDir, tickStop: make(chan struct{})}
	lns := make([]net.Listener, replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		c.ids = append(c.ids, "r"+strconv.Itoa(i))
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := range lns {
		if err := c.start(i, lns[i]); err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
	}
	if tr != nil {
		for i := 0; i < replicas; i++ {
			c.tickWG.Add(1)
			go c.runTicker(i)
		}
	}
	return c, nil
}

// start opens replica i on ln and publishes it.
func (c *cluster) start(i int, ln net.Listener) error {
	if c.tr != nil {
		ln = c.tr.listener(ln)
	}
	st, err := crdtsync.Open(append(c.options(i), crdtsync.WithListener(ln))...)
	if err != nil {
		ln.Close()
		return fmt.Errorf("open replica %d: %w", i, err)
	}
	c.reps[i].Store(newReplica(i, st, c.in, c.ids))
	return nil
}

// detach takes replica i out of service without closing it; calls
// already in flight on it finish first.
func (c *cluster) detach(i int) *replica {
	c.gate.Lock()
	defer c.gate.Unlock()
	return c.reps[i].Swap(nil)
}

// retire closes a detached replica and keeps its counters.
func (c *cluster) retire(r *replica) {
	r.st.Close()
	c.retMu.Lock()
	defer c.retMu.Unlock()
	c.retired.Add(r.st.Stats())
}

// reopen starts replica i again on its old address (and snapshot
// directory) and returns how long Open took.
func (c *cluster) reopen(i int) (time.Duration, error) {
	t := time.Now()
	ln, err := net.Listen("tcp", c.addrs[i])
	if err != nil {
		return 0, err
	}
	if err := c.start(i, ln); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

func (c *cluster) close() {
	close(c.tickStop)
	c.tickWG.Wait()
	var wg sync.WaitGroup
	for i := range c.reps {
		if r := c.reps[i].Swap(nil); r != nil {
			wg.Add(1)
			go func() { defer wg.Done(); r.st.Close() }()
		}
	}
	wg.Wait()
}

// live returns the open replicas.
func (c *cluster) live() []*replica {
	var out []*replica
	for i := range c.reps {
		if r := c.reps[i].Load(); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// runTicker is the traced run's stand-in for the store's sync loop:
// syncLoop is a ticker around SyncNow, so calling SyncNow every
// syncEvery from here is the same schedule, timed from outside.
func (c *cluster) runTicker(i int) {
	defer c.tickWG.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	buf := c.tr.newBuf()
	for {
		select {
		case <-c.tickStop:
			return
		case <-t.C:
		}
		c.gate.RLock()
		if r := c.reps[i].Load(); r != nil {
			start := c.tr.now()
			r.st.SyncNow()
			end := c.tr.now()
			digest := r.st.Ticks()%digestEvery == 0
			c.tr.tick(buf, digest, start, end)
		}
		c.gate.RUnlock()
	}
}

var errTimeout = errors.New("timed out")

// waitConverged polls until every open replica holds want keys with
// equal digests, then until every δ-buffer has drained (acked
// retransmissions of the set-up traffic would otherwise leak into the
// window's wire bytes).
func (c *cluster) waitConverged(want int, deadline time.Time) error {
	if err := pollUntil(deadline, func() bool { return c.converged(want) }); err != nil {
		return fmt.Errorf("converge to %d keys: %w", want, err)
	}
	if err := pollUntil(deadline, c.quiescent); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	return nil
}

func (c *cluster) converged(want int) bool {
	live := c.live()
	if len(live) < replicas {
		return false
	}
	d := live[0].st.Digest()
	for _, r := range live {
		if (want >= 0 && r.st.NumKeys() != want) || r.st.Digest() != d {
			return false
		}
	}
	return true
}

func (c *cluster) quiescent() bool {
	for _, r := range c.live() {
		if r.st.Memory().BufferBytes != 0 {
			return false
		}
	}
	return true
}

func pollUntil(deadline time.Time, ok func() bool) error {
	for !ok() {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// issue performs one op on r. It is the only place the load calls a
// mutating or querying handle method.
func (in *inputs) issue(r *replica, o op) {
	k := o.key
	switch o.kind {
	case opInc:
		r.counters[k].Inc(1)
	case opAdd:
		r.sets[k].Add(in.elems[o.arg])
	case opPut:
		r.maps[k].Put(in.fields[k%mapFields], in.vals[o.arg])
	case opValue:
		sink += r.counters[k].Value()
	case opContains:
		if r.sets[k].Contains(in.elems[o.arg]) {
			sink++
		}
	case opGet:
		v, _ := r.maps[k].Get(in.fields[k%mapFields])
		sink += uint64(len(v))
	}
}

// sink keeps read results live; only the generator goroutine writes it.
var sink uint64

// setup opens a cluster, applies the preload, sends one marker hello
// from every replica so all connections are up, and waits for
// convergence and quiescence. It returns the cluster, the expectations
// the preload leaves, and how long it all took.
func setup(in *inputs, tr *tracer, snapDir string) (*cluster, *expect, time.Duration, error) {
	start := time.Now()
	if snapDir != "" {
		if err := os.RemoveAll(snapDir); err != nil {
			return nil, nil, 0, err
		}
	}
	c, err := openCluster(in, tr, snapDir)
	if err != nil {
		return nil, nil, 0, err
	}
	exp := newExpect(in.keys)
	// The preload is paced: an instant 30,000-key burst set off
	// retransmission and repair storms that made set-up take anywhere
	// from 4 to 36 s on two cores.
	pt := time.Now()
	for i, o := range in.preOps {
		if d := time.Duration(float64(i)/preloadRate*1e9) - time.Since(pt); d > 0 {
			time.Sleep(d)
		}
		in.issue(c.reps[o.origin].Load(), o)
		exp.apply(o)
	}
	for i := range c.reps {
		r := c.reps[i].Load()
		r.markers[i].Inc(markerBase)
	}
	if err := c.waitConverged(in.writtenKeys(exp), time.Now().Add(phaseDeadline)); err != nil {
		c.close()
		return nil, nil, 0, err
	}
	return c, exp, time.Since(start), nil
}

// writtenKeys is the object count a converged replica holds: every
// written key plus the markers.
func (in *inputs) writtenKeys(e *expect) int {
	n := replicas
	for k := 0; k < in.keys; k++ {
		if e.written(k) {
			n++
		}
	}
	return n
}
