package transport

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hammers the frame parser — the first code hostile bytes
// hit on every connection, and the same framing the fault injector
// reassembles on both the write and read sides — with arbitrary input.
// Any frame it accepts must survive a write/read round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	seed := func(from string, msg []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, from, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed("node-7", []byte("payload"))
	seed("", nil)
	seed("s-00", bytes.Repeat([]byte{0xab}, 300))
	f.Add([]byte{0, 0, 0, 3, 0, 1, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})     // length far beyond the cap
	f.Add([]byte{0, 0, 0, 5, 0, 9, 'x', 'y'}) // sender length past the body
	f.Fuzz(func(t *testing.T, data []byte) {
		from, msg, err := readFrameInto(bytes.NewReader(data), new([]byte))
		if err != nil {
			return // rejected input: the interesting part is not crashing
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, string(from), msg); err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		from2, msg2, err := readFrameInto(&buf, new([]byte))
		if err != nil {
			t.Fatalf("re-reading a re-encoded frame failed: %v", err)
		}
		if !bytes.Equal(from2, from) || !bytes.Equal(msg2, msg) {
			t.Fatalf("round trip changed the frame: (%q, %x) != (%q, %x)", from2, msg2, from, msg)
		}
	})
}
