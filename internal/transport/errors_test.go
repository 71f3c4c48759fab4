package transport_test

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// dialNode opens a raw TCP connection to a store's listener.
func dialNode(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return conn
}

// expectDrop asserts the server closes the connection: once our bytes
// are processed, a read fails with something other than our own
// deadline expiring.
func expectDrop(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil || isTimeout(err) {
		t.Errorf("read = %v: server kept the connection open, want drop", err)
	}
}

// TestNodeDropsOversizedFrame: a length prefix beyond the 64 MiB cap
// must get the connection dropped without the store allocating the
// claimed buffer, and the store must stay healthy.
func TestNodeDropsOversizedFrame(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectDrop(t, conn)
	// The store is still healthy: real traffic converges.
	stores[1].Update(workload.Op{Kind: workload.KindInc, Key: "alive", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

// TestNodeDropsCorruptFrame: a well-framed message the codec cannot
// parse gets the connection dropped, and the store stays healthy.
func TestNodeDropsCorruptFrame(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	// Well-framed garbage: valid length and sender id, unparseable
	// message body (unknown codec tag).
	writeRawFrame(t, conn, []byte{0, 2, 'z', 'z', 250, 1, 2, 3})
	expectDrop(t, conn)
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "still-up", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

// writeRawFrame writes one frame body behind its 4-byte length prefix.
func writeRawFrame(t *testing.T, conn net.Conn, body []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := conn.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCloseWhilePeerMidFrame(t *testing.T) {
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "solo",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{},
		Factory:    protocol.NewDeltaBPRR(),
		ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialNode(t, st.Addr())
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- st.Close() }()
	select {
	case err := <-done:
		if err != nil && !isUseOfClosed(err) {
			t.Errorf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Store.Close hung on a peer stuck mid-frame")
	}
}

// legacyFrame is one well-formed frame body of a kind stores do not
// speak — a plain single-object delta — sent as from.
func legacyFrame(t *testing.T, from string) []byte {
	t.Helper()
	msg, err := codec.EncodeMsg(protocol.NewDeltaMsg(crdt.NewGSet("x"), metrics.Transmission{Messages: 1, Elements: 1}))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte{byte(len(from) >> 8), byte(len(from))}, from...)
	return append(body, msg...)
}

func TestStoreIgnoresNonShardedFrames(t *testing.T) {
	// A well-formed message of a kind stores do not speak is ignored:
	// the store keeps the connection and keeps syncing its own keyspace.
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	writeRawFrame(t, conn, legacyFrame(t, "legacy"))
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var one [1]byte
	if _, err := conn.Read(one[:]); !isTimeout(err) {
		t.Errorf("read after a non-sharded frame: %v, want a timeout (connection kept)", err)
	}
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "k", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

// TestStoreDropsConnectionOnSenderChange: a connection speaks for the
// sender its first frame names. A later frame on it claiming another
// sender is a spoof, and the store drops the connection — then keeps
// serving its real peers.
func TestStoreDropsConnectionOnSenderChange(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	writeRawFrame(t, conn, legacyFrame(t, "legacy"))
	writeRawFrame(t, conn, legacyFrame(t, "legacy"))
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var one [1]byte
	if _, err := conn.Read(one[:]); !isTimeout(err) {
		t.Fatalf("read after two frames from one sender: %v, want a timeout (connection kept)", err)
	}
	writeRawFrame(t, conn, legacyFrame(t, stores[1].ID()))
	expectDrop(t, conn)
	stores[1].Update(workload.Op{Kind: workload.KindInc, Key: "k", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
