// Package transport runs the sharded multi-object store over real TCP
// connections, turning the library into a deployable replica: a Store
// owns one per-object engine per shard, listens for frames from its
// neighbors, and drives synchronization, digest anti-entropy, Merkle
// repair and snapshots on its own loops. Frames are length-prefixed: a
// 4-byte big-endian length, the sender id (length-prefixed), and one
// codec-encoded protocol message.
//
// The simulator (package netsim) remains the measurement substrate — this
// package is the production path, exercised by loopback integration tests
// and the examples.
package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
)

// maxFrameBytes bounds a single frame (64 MiB) to fail fast on corrupt
// length prefixes.
const maxFrameBytes = 64 << 20

// ErrFrameTooLarge reports a frame exceeding maxFrameBytes.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// frameHeader is writeFrame's pooled scratch: the encoded frame header
// and the two-entry write vector. Pooling both keeps a frame write free
// of allocations whatever the message size.
type frameHeader struct {
	hdr  []byte
	vec  [2][]byte
	bufs net.Buffers
}

var frameHeaders = sync.Pool{New: func() any { return new(frameHeader) }}

// writeFrame emits [len][from][msg] with a 4-byte big-endian total length.
// The header and msg go out as one vectored write (writev on a TCP
// connection), so msg is never copied; writers without vectored writes
// see the header and msg as two Write calls.
func writeFrame(w io.Writer, from string, msg []byte) error {
	h := frameHeaders.Get().(*frameHeader)
	h.hdr = binary.BigEndian.AppendUint32(h.hdr[:0], uint32(2+len(from)+len(msg)))
	h.hdr = append(h.hdr, byte(len(from)>>8), byte(len(from)))
	h.hdr = append(h.hdr, from...)
	h.vec = [2][]byte{h.hdr, msg}
	h.bufs = h.vec[:]
	_, err := h.bufs.WriteTo(w)
	h.vec, h.bufs = [2][]byte{}, nil // never pin msg from the pool
	frameHeaders.Put(h)
	return err
}

// readFrameInto parses one frame into *buf, growing it only when a frame
// exceeds its capacity, so a connection's read loop amortizes one buffer
// across the frames it receives. The returned from and msg alias *buf and
// are valid only until the next call with the same buffer — the deliver
// path must be done with the bytes (or have copied what it keeps, which
// the codec's decoders always do) before the loop reads the next frame.
func readFrameInto(r io.Reader, buf *[]byte) (from, msg []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total > maxFrameBytes {
		return nil, nil, ErrFrameTooLarge
	}
	if uint32(cap(*buf)) < total {
		*buf = make([]byte, total)
	}
	body := (*buf)[:total]
	if _, err = io.ReadFull(r, body); err != nil {
		return nil, nil, err
	}
	if len(body) < 2 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	fromLen := int(body[0])<<8 | int(body[1])
	if len(body) < 2+fromLen {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return body[2 : 2+fromLen], body[2+fromLen:], nil
}
