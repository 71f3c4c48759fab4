package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by the benchmark around a call into
// one layer's public surface: handle calls (crdtsync), SyncNow
// (transport tick), conn reads and writes the store makes through the
// wrapped listener and dialer (transport recv/send).
const (
	nameGenBatch = iota
	namePollRound
	nameInc
	nameAdd
	namePut
	nameValue
	nameContains
	nameGet
	nameMarkerApply
	nameMarkerVisible
	nameTickPlain
	nameTickDigest
	nameRecvDeliver
	nameSendWrite
)

var spanNames = []string{
	"gen.batch", "poll.round",
	"crdtsync.Counter.Inc", "crdtsync.Set.Add", "crdtsync.Map.Put",
	"crdtsync.Counter.Value", "crdtsync.Set.Contains", "crdtsync.Map.Get",
	"marker.apply", "marker.visible",
	"transport.tick.plain", "transport.tick.digest",
	"transport.recv.deliver", "transport.send.write",
}

var opNames = [...]uint8{
	opInc: nameInc, opAdd: nameAdd, opPut: namePut,
	opValue: nameValue, opContains: nameContains, opGet: nameGet,
}

// span is one timed call. Spans of one request share trace (a marker's
// apply and its per-replica visibility); parent is the id of the span
// that caused this one, 0 for a root. Times are ns from the window start.
type span struct {
	id, trace, parent uint64
	name              uint8
	start, end        int64
	arg               int64 // frame bytes for transport spans, replica for marker.visible
}

// spanBuf is one goroutine's span log. Only its owner appends; the mutex
// orders the appends against the read at the end of the run.
type spanBuf struct {
	mu    sync.Mutex
	base  uint64
	spans []span
}

func (b *spanBuf) push(s span) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.id == 0 {
		s.id = b.base | uint64(len(b.spans)+1)
	}
	b.spans = append(b.spans, s)
	return s.id
}

func (b *spanBuf) open(name uint8, parent uint64, start int64) uint64 {
	return b.push(span{name: name, parent: parent, start: start, end: -1})
}

// close ends a span opened on this buffer.
func (b *spanBuf) close(id uint64, end int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i := int(id&(1<<40-1)) - 1; i >= 0 && i < len(b.spans) && b.spans[i].id == id {
		b.spans[i].end = end
	}
}

func (b *spanBuf) add(name uint8, parent, trace uint64, start, end int64) {
	b.push(span{name: name, parent: parent, trace: trace, start: start, end: end})
}

// addMarker records a marker's apply at its origin, inside the
// generator batch parent; its id is the marker's trace id, so the
// visibility spans can name it as their parent.
func (b *spanBuf) addMarker(trace, parent uint64, start, end int64) {
	b.push(span{id: trace, trace: trace, parent: parent, name: nameMarkerApply, start: start, end: end})
}

// addVisible records the marker becoming visible on replica r. Its
// start is fixed up to the apply's end when the trace is written.
func (b *spanBuf) addVisible(trace uint64, r int, end int64) {
	b.push(span{trace: trace, parent: trace, name: nameMarkerVisible, start: end, end: end, arg: int64(r)})
}

// tracer collects the traced run's spans and conn accounting.
type tracer struct {
	seed   int64
	epoch  time.Time
	clock  func() int64 // ns since epoch; tests substitute a fake
	active atomic.Bool
	endNs  int64 // window length, set by end

	mu     sync.Mutex
	bufs   []*spanBuf
	recvs  []*spanBuf
	sends  []*sendConn
	nConns int
}

func newTracer(seed int64) *tracer {
	t := &tracer{seed: seed}
	t.clock = func() int64 { return int64(time.Since(t.epoch)) }
	return t
}

// begin starts recording: spans are taken only inside the window.
func (t *tracer) begin(epoch time.Time) {
	t.epoch = epoch
	t.active.Store(true)
}

func (t *tracer) end(ns int64) {
	t.active.Store(false)
	t.endNs = ns
}

// now is the window clock, or -1 outside the window.
func (t *tracer) now() int64 {
	if !t.active.Load() {
		return -1
	}
	return t.clock()
}

func (t *tracer) newBuf() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{base: uint64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) tick(b *spanBuf, digest bool, start, end int64) {
	if start < 0 || end < 0 {
		return
	}
	name := uint8(nameTickPlain)
	if digest {
		name = nameTickDigest
	}
	b.add(name, 0, 0, start, end)
}

// frameParser follows the transport's framing (4-byte big-endian length,
// then the body: 2-byte sender-id length, sender id, message) across
// arbitrary read or write boundaries.
type frameParser struct {
	hdr      [4]byte
	hdrN     int
	bodyLeft int
}

// feed consumes p and calls onStart when a frame's header completes
// (with the body length) and onBody for each body chunk. It reports
// whether p ended exactly on a frame boundary that closed a frame.
func (f *frameParser) feed(p []byte, onStart func(n int), onBody func(b []byte)) (closed bool) {
	for len(p) > 0 {
		closed = false
		if f.hdrN < 4 {
			c := copy(f.hdr[f.hdrN:], p)
			f.hdrN += c
			p = p[c:]
			if f.hdrN < 4 {
				continue
			}
			f.bodyLeft = int(binary.BigEndian.Uint32(f.hdr[:]))
			if onStart != nil {
				onStart(f.bodyLeft)
			}
			if f.bodyLeft == 0 {
				f.hdrN, closed = 0, true
			}
			continue
		}
		c := min(len(p), f.bodyLeft)
		if onBody != nil {
			onBody(p[:c])
		}
		f.bodyLeft -= c
		p = p[c:]
		if f.bodyLeft == 0 {
			f.hdrN, closed = 0, true
		}
	}
	return closed
}

// recvConn wraps an accepted peer connection. The store's read loop
// reads a frame and then delivers it before reading again, so the gap
// from the Read that completed a frame to the next Read call is that
// frame's deliver time (unpack, apply, replies).
type recvConn struct {
	net.Conn
	tr       *tracer
	buf      *spanBuf
	parse    frameParser
	pending  bool
	frameEnd int64
}

func (c *recvConn) Read(p []byte) (int, error) {
	start := c.tr.now()
	if c.pending {
		c.pending = false
		if start >= 0 && c.frameEnd >= 0 {
			c.buf.add(nameRecvDeliver, 0, 0, c.frameEnd, start)
		}
	}
	n, err := c.Conn.Read(p)
	if c.parse.feed(p[:n], nil, nil) {
		c.pending, c.frameEnd = true, c.tr.now()
	}
	return n, err
}

type recvListener struct {
	net.Listener
	tr *tracer
}

func (l recvListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	b := l.tr.newBuf()
	l.tr.mu.Lock()
	l.tr.recvs = append(l.tr.recvs, b)
	l.tr.mu.Unlock()
	return &recvConn{Conn: conn, tr: l.tr, buf: b}, nil
}

func (t *tracer) listener(ln net.Listener) net.Listener { return recvListener{Listener: ln, tr: t} }

// frameSample is the bounded reservoir of outbound messages a send conn
// keeps for the codec replay.
const frameSample = 64

// sendConn wraps an outbound peer connection: it times the store's
// writes per frame and keeps a reservoir sample of the frames' messages.
type sendConn struct {
	net.Conn
	tr    *tracer
	buf   *spanBuf
	rng   *rand.Rand
	parse frameParser

	frameStart int64
	frameBytes int
	seen       int
	slot       int    // reservoir slot of the frame being written, -1 none
	body       []byte // its bytes so far

	mu     sync.Mutex
	sample [][]byte // message bytes (sender id stripped)
}

func (t *tracer) dial(id, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.nConns++
	c := &sendConn{Conn: conn, tr: t, rng: t.rngFor(t.nConns), slot: -1}
	t.sends = append(t.sends, c)
	t.mu.Unlock()
	c.buf = t.newBuf()
	return c, nil
}

// rngFor seeds conn n's reservoir sampler from the run's seed.
func (t *tracer) rngFor(n int) *rand.Rand { return rand.New(rand.NewSource(t.seed + int64(n))) }

func (c *sendConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	if start < 0 {
		c.parse.feed(p[:n], nil, nil)
		c.frameStart, c.slot = -1, -1
		return n, err
	}
	if c.parse.hdrN == 0 {
		c.frameStart = start
	}
	closed := c.parse.feed(p[:n], c.startFrame, func(b []byte) {
		if c.slot >= 0 {
			c.body = append(c.body, b...)
		}
	})
	if closed && c.frameStart >= 0 {
		if end := c.tr.now(); end >= 0 {
			c.buf.push(span{name: nameSendWrite, start: c.frameStart, end: end, arg: int64(c.frameBytes)})
		}
		c.keep()
	}
	return n, err
}

// startFrame picks, by reservoir sampling, whether to keep this frame.
func (c *sendConn) startFrame(n int) {
	c.frameBytes = n + 4
	c.seen++
	c.slot = -1
	if n > 1<<20 {
		return // bounded sample: skip huge frames
	}
	if c.seen <= frameSample {
		c.slot = c.seen - 1
	} else if j := c.rng.Intn(c.seen); j < frameSample {
		c.slot = j
	}
	c.body = make([]byte, 0, n)
}

func (c *sendConn) keep() {
	if c.slot < 0 || len(c.body) < 2 {
		return
	}
	from := int(c.body[0])<<8 | int(c.body[1])
	if len(c.body) < 2+from {
		return
	}
	msg := c.body[2+from:]
	c.mu.Lock()
	for len(c.sample) <= c.slot {
		c.sample = append(c.sample, nil)
	}
	c.sample[c.slot] = msg
	c.mu.Unlock()
	c.slot, c.body = -1, nil
}

// frames returns every sampled message.
func (t *tracer) frames() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [][]byte
	for _, c := range t.sends {
		c.mu.Lock()
		for _, m := range c.sample {
			if m != nil {
				out = append(out, m)
			}
		}
		c.mu.Unlock()
	}
	return out
}

func (t *tracer) bufsCopy() []*spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*spanBuf(nil), t.bufs...)
}

func (t *tracer) recvCopy() []*spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*spanBuf(nil), t.recvs...)
}

func (b *spanBuf) snapshot() []span {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]span(nil), b.spans...)
}

// durations returns the durations (ns) of the named spans in bufs.
func durations(bufs []*spanBuf, names ...uint8) (out []int64, bytes int64) {
	for _, b := range bufs {
		for _, s := range b.snapshot() {
			for _, n := range names {
				if s.name == n && s.end >= s.start {
					out = append(out, s.end-s.start)
					bytes += s.arg
				}
			}
		}
	}
	return out, bytes
}

func sum(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// ledgerRow is one span name's totals: how often, how long in all, and
// how much of that no child span covers.
type ledgerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
}

// allSpans gathers every buffer's spans and fixes each visibility span's
// start to its marker's apply end.
func (t *tracer) allSpans() []span {
	var all []span
	for _, b := range t.bufsCopy() {
		all = append(all, b.snapshot()...)
	}
	applyEnd := map[uint64]int64{}
	for _, s := range all {
		if s.name == nameMarkerApply {
			applyEnd[s.id] = s.end
		}
	}
	for i := range all {
		if s := &all[i]; s.name == nameMarkerVisible {
			if e, ok := applyEnd[s.parent]; ok && e <= s.end {
				s.start = e
			}
		}
	}
	return all
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(all []span) []int64 {
	kids := map[uint64][][2]int64{}
	for _, s := range all {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(all))
	for i, s := range all {
		d := s.end - s.start
		iv := kids[s.id]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cur := s.start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.end)
			if hi > lo {
				d -= hi - lo
				cur = hi
			}
		}
		self[i] = d
	}
	return self
}

func ledger(all []span) []ledgerRow {
	self := selfTimes(all)
	by := map[uint8][]int{}
	for i, s := range all {
		if s.end >= s.start {
			by[s.name] = append(by[s.name], i)
		}
	}
	var rows []ledgerRow
	for name, idx := range by {
		var durs []int64
		var selfSum int64
		for _, i := range idx {
			durs = append(durs, all[i].end-all[i].start)
			selfSum += self[i]
		}
		d := summarize(durs, 1e3)
		rows = append(rows, ledgerRow{
			Name: spanNames[name], Count: len(idx),
			TotalMs: float64(sum(durs)) / 1e6, SelfMs: float64(selfSum) / 1e6,
			P50Us: d.p50, P99Us: d.p99,
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
	return rows
}

// writeTrace writes the run's spans to one file: a header line with the
// run description and the ledger, then one JSON object per span.
func writeTrace(path string, header map[string]any, all []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range all {
		fmt.Fprintf(w, `{"id":%d,"trace":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"arg":%d}`+"\n",
			s.id, s.trace, s.parent, spanNames[s.name], s.start, s.end, s.arg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
