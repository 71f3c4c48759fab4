package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, "node-7", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	from, msg, err := readFrameInto(&buf, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if string(from) != "node-7" || string(msg) != "payload" {
		t.Errorf("got (%q, %q)", from, msg)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes+1)
	_, _, err := readFrameInto(bytes.NewReader(hdr[:]), new([]byte))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 100 bytes; only 10 arrive.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 10))
	if _, _, err := readFrameInto(&buf, new([]byte)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameBadSenderLength(t *testing.T) {
	// Body too short to hold the declared sender id length.
	for _, body := range [][]byte{
		{},            // no sender-length prefix at all
		{0},           // truncated prefix
		{0, 5, 'a'},   // claims 5 sender bytes, has 1
		{255, 255, 0}, // absurd sender length
	} {
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		buf.Write(hdr[:])
		buf.Write(body)
		if _, _, err := readFrameInto(&buf, new([]byte)); err == nil {
			t.Errorf("body %v: want error, got nil", body)
		}
	}
}

// TestReadLoopReleasesLargeFrameBuffer: a connection reuses one read
// buffer across steady-state frames, but a frame larger than a repair
// chunk must not pin its buffer for the connection's lifetime — the next
// small frame reads into a fresh small buffer, which is reused again.
func TestReadLoopReleasesLargeFrameBuffer(t *testing.T) {
	p := newPeerNet("n0", nil, nil, nil, queueConfig{})
	client, server := net.Pipe()
	type read struct {
		first *byte // start of the frame's bytes in the read buffer
		cap   int
	}
	reads := make(chan read, 8)
	p.wg.Add(1)
	go p.readLoop(server, func(_ string, data []byte) error {
		reads <- read{&data[0], cap(data)}
		return nil
	})
	small := bytes.Repeat([]byte{1}, 64)
	large := bytes.Repeat([]byte{2}, 2*repairChunkBytes)
	for _, msg := range [][]byte{small, small, large, small, small} {
		if err := writeFrame(client, "peer", msg); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	p.wg.Wait()
	close(reads)
	var got []read
	for r := range reads {
		got = append(got, r)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(got))
	}
	if got[1].first != got[0].first || got[4].first != got[3].first {
		t.Error("consecutive small frames did not reuse the read buffer")
	}
	if got[3].cap > repairChunkBytes {
		t.Errorf("small frame after a %d-byte one read into a %d-byte buffer, want the large buffer released",
			len(large), got[3].cap)
	}
}

func TestTransmitToUnknownPeerIsDropped(t *testing.T) {
	// Transmitting to a peer id that is not configured must fail cleanly
	// rather than panicking or blocking; the Store drops the frame.
	// There is no write pipeline for an unknown peer — pipelines are
	// fixed at construction.
	p := newPeerNet("a", map[string]string{}, nil, nil, queueConfig{})
	if err := p.transmit("stranger", []byte("x")); err == nil {
		t.Error("transmit to unknown peer should fail")
	}
	if got := len(p.peerStats()); got != 0 {
		t.Errorf("peer pipelines = %d, want 0", got)
	}
}

// TestWriteFrameVectoredNoCopy pins writeFrame's single vectored write:
// the bytes equal the [len][from][msg] encoding, and a 1 MiB message
// costs no more allocations than a 16-byte one, because the message is
// handed to the writer as is instead of being copied into a fresh frame
// buffer.
func TestWriteFrameVectoredNoCopy(t *testing.T) {
	const from = "node-7"
	small := bytes.Repeat([]byte{0x5a}, 16)
	large := bytes.Repeat([]byte{0xa5}, 1<<20)
	for _, msg := range [][]byte{nil, small, large} {
		want := binary.BigEndian.AppendUint32(nil, uint32(2+len(from)+len(msg)))
		want = append(want, 0, byte(len(from)))
		want = append(want, from...)
		want = append(want, msg...)
		var buf bytes.Buffer
		if err := writeFrame(&buf, from, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d-byte message: frame bytes differ from the [len][from][msg] encoding", len(msg))
		}
	}

	write := func(msg []byte) func() {
		return func() {
			if err := writeFrame(io.Discard, from, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Under the race detector sync.Pool drops a share of its items, which
	// adds a fraction of an allocation per write to either size alike.
	smallAllocs := testing.AllocsPerRun(200, write(small))
	largeAllocs := testing.AllocsPerRun(200, write(large))
	if largeAllocs > smallAllocs+0.5 {
		t.Errorf("1 MiB frame: %.2f allocs per write, 16-byte frame: %.2f", largeAllocs, smallAllocs)
	}
	const writes = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		write(large)()
	}
	runtime.ReadMemStats(&after)
	if perWrite := (after.TotalAlloc - before.TotalAlloc) / writes; perWrite > 64<<10 {
		t.Errorf("1 MiB frame write allocated %d bytes, want no copy of the message", perWrite)
	}
}
