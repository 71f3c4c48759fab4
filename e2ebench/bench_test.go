package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50_000, true}, {99, 50_000, true},
		{100, 90_000, true}, {999, 90_000, true}, {1000, 99_000, true},
		{9999, 99_000, true}, {10_000, 99_900, true}, {100_000, 99_990, true},
	} {
		got, ok := tailRank(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	var ns []int64
	for i := 1000; i >= 1; i-- {
		ns = append(ns, int64(i)*1e6) // 1..1000 ms, unsorted
	}
	d := summarize(ns, 1e6)
	if d.n != 1000 || d.p50 != 500 || d.p99 != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", d)
	}
	// Exactly ten samples lie beyond p99 of 1000: 991..1000.
	if d.tailQ != 99_000 || d.tail != 990 {
		t.Fatalf("tail = p%d %v, want p99 990", d.tailQ, d.tail)
	}
}

func TestSlicedIgnoresOneStalledSlice(t *testing.T) {
	ns := make([]int64, 5*sliceMin)
	for i := range ns {
		ns[i] = int64(i%100+1) * 1e6 // every slice: 1..100 ms
	}
	for i := 0; i < 200; i++ {
		ns[i] = 500e6 // one stall hits the first slice only
	}
	if got := sliced(ns, 99_000, 1e6); got != 99 {
		t.Fatalf("sliced p99 = %v, want 99 (the stalled slice is dropped)", got)
	}
	if got := summarize(ns, 1e6).p99; got != 500 {
		t.Fatalf("whole-window p99 = %v, want 500", got)
	}
	if got := sliced(ns[:sliceMin+1], 99_000, 1e6); got != 500 {
		t.Fatalf("one slice: p99 = %v, want the plain quantile 500", got)
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{nil, 0}, {[]float64{5}, 5}, {[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5}, {[]float64{9, 1, 2, 3, 4, 5, 6, 1000}, 4.5},
	} {
		if got := midMean(c.v); got != c.want {
			t.Errorf("midMean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// scriptConn serves a fixed byte stream; every Read costs readCost on
// the fake clock.
type scriptConn struct {
	net.Conn
	data  []byte
	clock *int64
}

const readCost = 1_000

func (c *scriptConn) Read(p []byte) (int, error) {
	*c.clock += readCost
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

func frame(from string, msg []byte) []byte {
	body := append([]byte{byte(len(from) >> 8), byte(len(from))}, from...)
	body = append(body, msg...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestRecvConnReadGapBusy drives the wrapped conn the way the store's
// read loop does (header, then body, then deliver) and checks that only
// the gap after each completed frame counts as deliver time.
func TestRecvConnReadGapBusy(t *testing.T) {
	var clock int64
	tr := newTracer(1)
	tr.clock = func() int64 { return clock }
	tr.begin(time.Now())
	f1, f2 := frame("r1", bytes.Repeat([]byte{7}, 100)), frame("r1", []byte{1, 2, 3})
	raw := &scriptConn{data: append(append([]byte(nil), f1...), f2...), clock: &clock}
	ln := tr.listener(&oneConnListener{conn: raw})
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	read := func(n int) {
		t.Helper()
		if _, err := io.ReadFull(conn, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	read(4)
	read(40) // the first body in two reads: no gap between them counts
	clock += 7_000
	read(len(f1) - 44)
	clock += 500_000 // deliver frame 1
	read(4)
	read(len(f2) - 4)
	clock += 300_000 // deliver frame 2
	if _, err := conn.Read(make([]byte, 4)); err != io.EOF {
		t.Fatalf("read after the last frame: %v, want EOF", err)
	}
	got, _ := durations(tr.recvCopy(), nameRecvDeliver)
	if len(got) != 2 || got[0] != 500_000 || got[1] != 300_000 {
		t.Fatalf("deliver spans %v, want [500000 300000]", got)
	}
}

type oneConnListener struct {
	net.Listener
	conn net.Conn
}

func (l *oneConnListener) Accept() (net.Conn, error) { return l.conn, nil }

func TestSendConnSamplesFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go io.Copy(io.Discard, b)
	tr := newTracer(1)
	tr.begin(time.Now())
	c := &sendConn{Conn: a, tr: tr, buf: tr.newBuf(), slot: -1}
	tr.sends = append(tr.sends, c)
	c.rng = newTracer(2).rngFor(0)
	for i := 0; i < 3; i++ {
		f := frame("r0", []byte{byte(i), 9})
		if _, err := c.Write(f[:4]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(f[4:]); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.frames()
	if len(got) != 3 || !bytes.Equal(got[2], []byte{2, 9}) {
		t.Fatalf("sampled %v, want the three messages without sender ids", got)
	}
	if d, n := durations(tr.bufsCopy(), nameSendWrite); len(d) != 3 || n != 3*int64(len(frame("r0", []byte{0, 9}))) {
		t.Fatalf("send spans %d with %d bytes", len(d), n)
	}
}

// TestVerifyRejectsDivergentReplica converges a small cluster, checks
// that it verifies, then writes to one replica behind the gate's back.
func TestVerifyRejectsDivergentReplica(t *testing.T) {
	sp, _ := findSpec("hot-mixed")
	sp.keys = 60
	in := generate(sp, 7, 0.1)
	c, exp, _, err := setup(in, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	markers := [replicas]uint64{markerBase, markerBase, markerBase}
	if v := verify(c, exp, markers); v.failed != 0 {
		t.Fatalf("converged cluster failed verification: %v", v.reasons)
	}
	c.reps[2].Load().counters[0].Inc(1) // key 0 is a counter in the mixed family split
	if v := verify(c, exp, markers); v.failed == 0 {
		t.Fatal("a replica with an unissued increment passed verification")
	}
}

// TestSmokeEveryWorkload runs each workload of BENCHMARK.json briefly,
// untraced and traced, and checks that every listed metric is printed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster per workload")
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	// restart-catchup is not gated, but must keep working.
	bm.Workloads = append(bm.Workloads, struct{ Name string }{"restart-catchup"})
	for _, w := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 3, seconds: 1, trace: traced, setups: 1, out: t.TempDir(), keys: 2000}
			var out bytes.Buffer
			res, err := runBench(cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.correct, res.failed, res.attempted, out.String())
			}
			want := bm.EndToEnd
			if traced {
				want = bm.PerLayer
			}
			got := res.json()["metrics"].(map[string]any)
			for _, m := range want {
				if _, ok := got[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traced, len(got), len(want))
			}
		}
	}
}
