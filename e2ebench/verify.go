package main

import "fmt"

// verdict is the verification gate's outcome: how many checks failed
// and the first few reasons.
type verdict struct {
	failed  int
	reasons []string
}

func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if len(v.reasons) < 8 {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
}

// verify checks the drained cluster against what the load issued: every
// replica holds the same keys and digest, every counter equals the
// increments issued for it, every set holds exactly the added elements,
// every map field holds a value written to it (its last one when a
// single replica wrote it), and every marker reached every replica. A
// key wrong on any replica counts once.
func verify(c *cluster, exp *expect, markers [replicas]uint64) verdict {
	var v verdict
	live := c.live()
	if len(live) != replicas {
		v.fail(1, "%d of %d replicas open", len(live), replicas)
		return v
	}
	in := c.in
	want := in.writtenKeys(exp)
	d := live[0].st.Digest()
	for _, r := range live {
		if n := r.st.NumKeys(); n != want {
			v.fail(1, "replica %d holds %d keys, want %d", r.idx, n, want)
		}
		if r.st.Digest() != d {
			v.fail(1, "replica %d digest %x differs from replica 0's %x", r.idx, r.st.Digest(), d)
		}
		for o, m := range markers {
			if got := r.markers[o].Value(); got != m {
				v.fail(1, "replica %d sees marker %d at %d, want %d", r.idx, o, got, m)
			}
		}
	}
	for k := 0; k < in.keys; k++ {
		for _, r := range live {
			if msg := checkKey(in, exp, r, k); msg != "" {
				v.fail(1, "replica %d key %d: %s", r.idx, k, msg)
				break
			}
		}
	}
	return v
}

func checkKey(in *inputs, exp *expect, r *replica, k int) string {
	switch in.family(k) {
	case famCounter:
		if got := r.counters[k].Value(); got != exp.count[k] {
			return fmt.Sprintf("counter %d, want %d", got, exp.count[k])
		}
	case famSet:
		s := r.sets[k]
		want := exp.elems[k]
		n := 0
		for e := 0; e < setDomain; e++ {
			if want&(1<<e) != 0 {
				n++
				if !s.Contains(in.elems[e]) {
					return fmt.Sprintf("set lacks %q", in.elems[e])
				}
			}
		}
		if got := s.Len(); got != n {
			return fmt.Sprintf("set has %d elements, want %d", got, n)
		}
	default:
		val, ok := r.maps[k].Get(in.fields[k%mapFields])
		if exp.writer[k] == -1 {
			if ok {
				return "unwritten map field present"
			}
			return ""
		}
		if !ok {
			return "map field missing"
		}
		if exp.writer[k] >= 0 {
			if val != in.vals[exp.last[k]] {
				return fmt.Sprintf("map field %q, want last write %q", val, in.vals[exp.last[k]])
			}
			return ""
		}
		for i, s := range in.vals {
			if s == val && exp.vals[k]&(1<<i) != 0 {
				return ""
			}
		}
		return fmt.Sprintf("map field %q was never written there", val)
	}
	return ""
}
