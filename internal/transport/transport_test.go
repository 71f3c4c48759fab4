package transport_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// setKey is the one object the topology tests replicate: a GSet every
// replica adds its own element to.
const setKey = "set"

// startCluster boots n stores on loopback with the given edges (pairs of
// store indexes) as their only peers — partial topologies, so updates
// must relay through intermediate replicas — all running the given inner
// engine over per-key GSets.
func startCluster(t *testing.T, n int, edges [][2]int, factory protocol.Factory) []*transport.Store {
	t.Helper()
	ids := make([]string, n)
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	// Bind all listeners first so every address is known before any
	// engine is constructed with its neighbor set.
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	peersOf := make([]map[string]string, n)
	for i := range peersOf {
		peersOf[i] = make(map[string]string)
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		peersOf[a][ids[b]] = addrs[b]
		peersOf[b][ids[a]] = addrs[a]
	}
	stores := make([]*transport.Store, n)
	for i := range stores {
		st, err := transport.StartStore(transport.StoreConfig{
			ID:        ids[i],
			Listener:  listeners[i],
			Peers:     peersOf[i],
			Nodes:     ids,
			Shards:    4,
			Factory:   factory,
			ObjType:   func(string) workload.Datatype { return workload.GSetType{} },
			SyncEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("start %s: %v", ids[i], err)
		}
		stores[i] = st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// waitConverged polls until every store's set equals want.
func waitConverged(t *testing.T, stores []*transport.Store, want lattice.State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		allEqual := true
		for _, st := range stores {
			if s := st.Get(setKey); s == nil || !s.Equal(want) {
				allEqual = false
			}
		}
		if allEqual {
			return
		}
		if time.Now().After(deadline) {
			for _, st := range stores {
				t.Logf("%s: %v", st.ID(), st.Get(setKey))
			}
			t.Fatal("cluster did not converge in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTwoNodesOverTCP(t *testing.T) {
	stores := startCluster(t, 2, [][2]int{{0, 1}}, protocol.NewDeltaBPRR())
	stores[0].Update(workload.Add(setKey, "from-zero"))
	stores[1].Update(workload.Add(setKey, "from-one"))
	waitConverged(t, stores, crdt.NewGSet("from-zero", "from-one"), 5*time.Second)
}

func TestLineClusterMultiHop(t *testing.T) {
	// t00 — t01 — t02: updates must relay through the middle store.
	stores := startCluster(t, 3, [][2]int{{0, 1}, {1, 2}}, protocol.NewDeltaBPRR())
	stores[0].Update(workload.Add(setKey, "end-to-end"))
	waitConverged(t, stores, crdt.NewGSet("end-to-end"), 5*time.Second)
}

// TestRingClusterAllProtocolsOverTCP runs every inner engine of the
// paper as the store's per-object engine on a 4-ring, so each one's
// messages cross real connections through the sharded frame path.
func TestRingClusterAllProtocolsOverTCP(t *testing.T) {
	factories := map[string]protocol.Factory{
		"state":       protocol.NewStateBased(),
		"delta-bp+rr": protocol.NewDeltaBPRR(),
		"delta-acked": protocol.NewDeltaAcked(true, true),
		"scuttlebutt": protocol.NewScuttlebutt(),
		"op-based":    protocol.NewOpBased(),
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
			stores := startCluster(t, 4, edges, f)
			want := crdt.NewGSet()
			for i, st := range stores {
				e := fmt.Sprintf("elem-%d", i)
				st.Update(workload.Add(setKey, e))
				want.Add(e)
			}
			waitConverged(t, stores, want, 10*time.Second)
		})
	}
}

func TestSyncNowImmediate(t *testing.T) {
	stores := startCluster(t, 2, [][2]int{{0, 1}}, protocol.NewDeltaBPRR())
	stores[0].Update(workload.Add(setKey, "now"))
	stores[0].SyncNow()
	waitConverged(t, stores, crdt.NewGSet("now"), 2*time.Second)
}

func isUseOfClosed(err error) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte("use of closed"))
}
