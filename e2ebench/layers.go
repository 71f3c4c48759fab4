package main

import (
	"time"

	"crdtsync"
	"crdtsync/internal/codec"
)

// snapshotProbe is the snapshot and restore layer's numbers: from the
// mid-window restart on restart-catchup, otherwise from a restart of
// replica 0 after the traced run's window.
type snapshotProbe struct {
	ms, bytes, restoreMs, keys float64
}

func probeRestart(c *cluster) (snapshotProbe, error) {
	var p snapshotProbe
	r := c.detach(0)
	t := time.Now()
	err := r.st.SnapshotNow()
	p.ms = float64(time.Since(t).Nanoseconds()) / 1e6
	p.bytes = float64(r.st.Stats().SnapshotBytes)
	c.retire(r)
	if err != nil {
		return p, err
	}
	d, err := c.reopen(0)
	if err != nil {
		return p, err
	}
	p.restoreMs = float64(d.Nanoseconds()) / 1e6
	p.keys = float64(c.reps[0].Load().st.Stats().SnapshotRestoredKeys)
	return p, nil
}

// codecReplay times the codec on real traffic after the run: unpacking
// the frames the dial wrapper sampled, and encoding replica 0's final
// keyspace state by state, the inner loop of a digest.
type codecReplay struct {
	unpackNsPerItem, encodeNsPerKey float64
	frames, items, keys             int
}

const replayBudget = 200 * time.Millisecond

func replayCodec(frames [][]byte, c *cluster) codecReplay {
	var out codecReplay
	var v codec.FrameView
	var usable [][]byte
	for _, f := range frames {
		if codec.UnpackFrame(f, shards, &v) == nil && v.NumItems() > 0 {
			usable = append(usable, f)
			out.items += v.NumItems()
		}
	}
	out.frames = len(usable)
	if out.items > 0 {
		t := time.Now()
		rounds := 0
		for time.Since(t) < replayBudget {
			for _, f := range usable {
				_ = codec.UnpackFrame(f, shards, &v) // accepted above
			}
			rounds++
		}
		out.unpackNsPerItem = float64(time.Since(t).Nanoseconds()) / float64(rounds*out.items)
	}
	st := c.reps[0].Load().st
	var buf []byte
	encode := func() int {
		n := 0
		for sh := 0; sh < st.NumShards(); sh++ {
			st.Query(sh, func(_ string, s crdtsync.State) bool {
				buf = codec.AppendState(buf[:0], s)
				n++
				return true
			})
		}
		return n
	}
	t := time.Now()
	total := 0
	for time.Since(t) < replayBudget {
		total += encode()
	}
	out.keys = total
	out.encodeNsPerKey = float64(time.Since(t).Nanoseconds()) / float64(max(total, 1))
	return out
}

// layerMetrics computes the traced run's per-layer numbers from the
// spans, the store's own counters over the window and drain, and the
// post-run probes.
func layerMetrics(tr *tracer, before, after totals, rt0, rt1 rtSample, win, updates float64,
	writeSvc, readSvc, lag dist, bufferBytes int, snap snapshotProbe, cr codecReplay) []metric {
	W := float64(tr.endNs) / 1e9
	ticks, _ := durations(tr.bufsCopy(), nameTickPlain, nameTickDigest)
	digestTicks, _ := durations(tr.bufsCopy(), nameTickDigest)
	plainTicks, _ := durations(tr.bufsCopy(), nameTickPlain)
	tick := summarize(ticks, 1e6)
	recv, _ := durations(tr.recvCopy(), nameRecvDeliver)
	recvD := summarize(recv, 1e3)
	busyMax := 0.0
	for _, b := range tr.recvCopy() {
		d, _ := durations([]*spanBuf{b}, nameRecvDeliver)
		busyMax = max(busyMax, float64(sum(d))/1e9/W)
	}
	sends, sendBytes := durations(tr.bufsCopy(), nameSendWrite)
	sendD := summarize(sends, 1e3)

	var busy, minBusy, maxBusy int64
	for i, b := range after.busy {
		if i < len(before.busy) {
			b -= before.busy[i]
		}
		busy += b
		if i == 0 || b < minBusy {
			minBusy = b
		}
		maxBusy = max(maxBusy, b)
	}
	workers := float64(max(len(after.busy), 1))
	d := func(a, b int) float64 { return float64(a - b) }
	rounds := d(after.treeRounds, before.treeRounds)
	enq := max(d(after.enqueued, before.enqueued), 1)
	digests := d(after.digestFrames, before.digestFrames)
	piggy := d(after.piggy, before.piggy)
	cpu := float64(rt1.processCPUs-rt0.processCPUs) / 1e9

	return []metric{
		{"crdtsync.write_us_p50", "us", writeSvc.p50},
		{"crdtsync.write_us_p99", "us", writeSvc.p99},
		{"crdtsync.read_us_p50", "us", readSvc.p50},
		{"crdtsync.read_us_p99", "us", readSvc.p99},
		{"transport.tick.ms_p50", "ms", tick.p50},
		{"transport.tick.ms_p99", "ms", tick.p99},
		{"transport.tick.busy_frac", "ratio", float64(sum(ticks)) / 1e9 / (replicas * W)},
		{"transport.tick.digest_ms_p50", "ms", summarize(digestTicks, 1e6).p50},
		{"transport.tick.plain_ms_p50", "ms", summarize(plainTicks, 1e6).p50},
		{"transport.pool.busy_frac", "ratio", float64(busy) / 1e9 / (workers * replicas * win)},
		{"transport.pool.imbalance", "ratio", float64(maxBusy) / float64(max(minBusy, 1))},
		{"transport.recv.busy_frac_max", "ratio", busyMax},
		{"transport.recv.us_per_frame_p50", "us", recvD.p50},
		{"transport.recv.us_per_frame_p99", "us", recvD.p99},
		{"transport.recv.frames_per_s", "1/s", float64(len(recv)) / W},
		{"transport.send.frames_per_s", "1/s", float64(len(sends)) / W},
		{"transport.send.bytes_per_frame", "B", float64(sendBytes) / float64(max(len(sends), 1))},
		{"transport.send.write_us_p99", "us", sendD.p99},
		{"transport.send.drop_ratio", "ratio", d(after.dropped, before.dropped) / enq},
		{"transport.send.coalesced_ratio", "ratio", d(after.coalesced, before.coalesced) / enq},
		{"transport.repair.tree_rounds_per_s", "1/s", rounds / win},
		{"transport.repair.ranges_per_round", "ratio", d(after.ranges, before.ranges) / max(rounds, 1)},
		{"transport.repair.bytes", "B", d(after.repairBytes, before.repairBytes)},
		{"transport.digest.frames_per_s", "1/s", digests / win},
		{"transport.digest.piggyback_ratio", "ratio", piggy / max(piggy+digests, 1)},
		{"transport.snapshot.write_ms", "ms", snap.ms},
		{"transport.snapshot.bytes", "B", snap.bytes},
		{"transport.restore.ms", "ms", snap.restoreMs},
		{"transport.restore.keys", "count", snap.keys},
		{"protocol.metadata_ratio", "ratio", d(after.meta, before.meta) / max(d(after.payload, before.payload), 1)},
		{"protocol.buffer_bytes", "B", float64(bufferBytes)},
		{"codec.unpack_ns_per_item", "ns", cr.unpackNsPerItem},
		{"codec.encode_ns_per_key", "ns", cr.encodeNsPerKey},
		{"runtime.gc_cpu_frac", "ratio", (rt1.gcCPU - rt0.gcCPU) / max(cpu, 1e-9)},
		{"runtime.allocs_per_update", "count", float64(rt1.allocs-rt0.allocs) / updates},
		{"runtime.alloc_bytes_per_update", "B", float64(rt1.allocBytes-rt0.allocBytes) / updates},
		{"gen.lag_p99_ms", "ms", lag.p99},
	}
}
