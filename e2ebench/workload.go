package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Object families a workload key can belong to; the key index decides
// the family, so every replica's handles agree without a lookup table.
const (
	famCounter = iota
	famSet
	famMap
)

// Operation kinds. Writes go through Counter.Inc, Set.Add and Map.Put;
// reads through Counter.Value, Set.Contains and Map.Get.
const (
	opInc = iota
	opAdd
	opPut
	opValue
	opContains
	opGet
)

const (
	setDomain = 16 // set elements per set: state size stays stationary
	valDomain = 64 // map values: a small fixed domain of 32-byte strings
	mapFields = 8  // fields per map name
)

// op is one generated call: the replica it is issued at, the key index
// and the element or value index it carries.
type op struct {
	kind   uint8
	origin uint8
	arg    uint8
	key    int32
}

func (o op) isWrite() bool { return o.kind <= opPut }

// spec is one workload: the keyspace, the preload, and the open-loop
// offered rate. Everything the store sees is generated from the seed.
// BENCHMARK.json says why each workload was chosen.
type spec struct {
	name string
	// keys is the keyspace size; when ingest is set it is rate×seconds
	// and every op writes a new key.
	keys     int
	preload  bool    // write every key once during set-up
	rate     float64 // offered workload ops/s (markers come on top)
	readFrac float64
	zipf     float64 // Zipf exponent of key popularity; 0 = uniform
	mixed    bool    // keys split across counter, set and map families
	ingest   bool    // each op creates a new key at replica key%3
	restart  bool    // snapshot, close and reopen one replica mid-window
}

var workloads = []spec{
	{name: "hot-mixed", keys: 4096, preload: true, rate: 5000, readFrac: 0.75, zipf: 1.1, mixed: true},
	// 20,000 keys is about 310 per shard, above the store's default
	// TreeRepairMinKeys (256), so digest mismatches take the Merkle
	// drill-down path. At 30,000 keys the load took about 1.3 of two
	// cores, and set-up times spread widely enough to approach their
	// convergence deadline.
	{name: "wide-uniform", keys: 20000, preload: true, rate: 200},
	// At 500 new keys/s (15,000 in a 30 s window) some runs fell into
	// repair and retransmission storms; 350/s stays clear of them.
	{name: "bulk-ingest", rate: 350, ingest: true},
	// Not in BENCHMARK.json: catch-up after a restart is one
	// tick-phase-bound sample per run, too coarse to gate on; the other
	// workloads' traced runs measure snapshot and restore instead.
	{name: "restart-catchup", keys: 20000, preload: true, rate: 200, restart: true},
}

func findSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) family(key int) int {
	switch {
	case s.mixed:
		return key % 3
	case s.ingest:
		return key % 2 * famMap // even keys counters, odd keys map fields
	default:
		return famCounter
	}
}

// inputs is one seeded instance of a workload: key names, the preload
// and the timed op stream.
type inputs struct {
	spec
	nOps    int
	names   []string // per key: the handle name
	fields  []string // map field names
	elems   []string // set element domain
	vals    []string // map value domain
	preOps  []op     // set-up writes, in issue order
	ops     []op     // timed ops; op i is due at i/rate
	seconds float64
}

func generate(s spec, seed int64, seconds float64) *inputs {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(len(s.name))))
	in := &inputs{spec: s, seconds: seconds}
	in.nOps = int(s.rate * seconds)
	if s.ingest {
		in.keys = in.nOps
	}
	in.names = make([]string, in.keys)
	for k := range in.names {
		if s.family(k) == famMap {
			in.names[k] = "u" + strconv.Itoa(k/mapFields)
		} else {
			in.names[k] = "k" + strconv.Itoa(k)
		}
	}
	for f := 0; f < mapFields; f++ {
		in.fields = append(in.fields, "f"+strconv.Itoa(f))
	}
	for e := 0; e < setDomain; e++ {
		in.elems = append(in.elems, fmt.Sprintf("e%02d-%d", e, r.Intn(1000)))
	}
	for v := 0; v < valDomain; v++ {
		in.vals = append(in.vals, fmt.Sprintf("v%02d-%025d", v, r.Int63()))
	}
	if s.preload {
		for k := 0; k < in.keys; k++ {
			in.preOps = append(in.preOps, in.write(r, k, k%replicas))
		}
	}
	var pick func() int
	switch {
	case s.ingest:
		perm := r.Perm(in.keys)
		next := 0
		pick = func() int { next++; return perm[next-1] }
	case s.zipf > 0:
		// Rank→key permutation spreads the hot keys over families
		// and shards.
		z := rand.NewZipf(r, s.zipf, 1, uint64(in.keys-1))
		perm := r.Perm(in.keys)
		pick = func() int { return perm[z.Uint64()] }
	default:
		pick = func() int { return r.Intn(in.keys) }
	}
	in.ops = make([]op, in.nOps)
	for i := range in.ops {
		k := pick()
		origin := r.Intn(replicas)
		if s.ingest {
			origin = k % replicas
		}
		if r.Float64() < s.readFrac {
			in.ops[i] = in.read(r, k, origin)
		} else {
			in.ops[i] = in.write(r, k, origin)
		}
	}
	return in
}

func (in *inputs) write(r *rand.Rand, k, origin int) op {
	o := op{origin: uint8(origin), key: int32(k)}
	switch in.family(k) {
	case famCounter:
		o.kind = opInc
	case famSet:
		o.kind, o.arg = opAdd, uint8(r.Intn(setDomain))
	default:
		o.kind, o.arg = opPut, uint8(r.Intn(valDomain))
	}
	return o
}

func (in *inputs) read(r *rand.Rand, k, origin int) op {
	o := op{origin: uint8(origin), key: int32(k)}
	switch in.family(k) {
	case famCounter:
		o.kind = opValue
	case famSet:
		o.kind, o.arg = opContains, uint8(r.Intn(setDomain))
	default:
		o.kind = opGet
	}
	return o
}

// dueNs is op i's scheduled offset from the window start.
func (in *inputs) dueNs(i int) int64 { return int64(float64(i) * 1e9 / in.rate) }

// expect is what the issued writes must leave on every replica: counter
// totals, set contents as element bitmasks, and the map values written
// per field (a bitmask of the value domain; a single-writer field must
// hold its last value).
type expect struct {
	count  []uint64
	elems  []uint16
	vals   []uint64
	last   []uint8
	writer []int8 // -1 no write yet, replica index, or -2 several
}

func newExpect(keys int) *expect {
	e := &expect{
		count:  make([]uint64, keys),
		elems:  make([]uint16, keys),
		vals:   make([]uint64, keys),
		last:   make([]uint8, keys),
		writer: make([]int8, keys),
	}
	for i := range e.writer {
		e.writer[i] = -1
	}
	return e
}

func (e *expect) apply(o op) {
	k := o.key
	switch o.kind {
	case opInc:
		e.count[k]++
	case opAdd:
		e.elems[k] |= 1 << o.arg
	case opPut:
		e.vals[k] |= 1 << o.arg
		e.last[k] = o.arg
		switch w := e.writer[k]; {
		case w == -1:
			e.writer[k] = int8(o.origin)
		case w != int8(o.origin):
			e.writer[k] = -2
		}
	}
}

// written reports whether key k has been written at all, i.e. exists
// as an object on a converged replica.
func (e *expect) written(k int) bool {
	return e.count[k] > 0 || e.elems[k] != 0 || e.writer[k] != -1
}
