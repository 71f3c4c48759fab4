package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/vclock"
)

// Message tags. Stable on the wire: append, never renumber.
const (
	tagStateMsg byte = iota + 64
	tagDeltaMsg
	_ // retired: the per-object acked δ, replaced by tagStreamMsg
	_ // retired: its seq-list ack, replaced by tagStreamAck
	tagSBDigestMsg
	tagSBDeltasMsg
	tagOpsMsg
	tagBatchMsg
	tagShardedMsg
	tagDigestMsg
	tagShardedDigestMsg
	tagTreeMsg
	tagStreamMsg
	tagStreamAck
)

// maxMsgNesting bounds message nesting during decoding. Legitimate
// traffic nests at most ShardedMsg → BatchMsg → leaf (depth 3); a hostile
// frame of repeated container prefixes must fail with an error instead of
// exhausting the goroutine stack.
const maxMsgNesting = 8

// EncodeMsg serializes a protocol message, including its transmission
// accounting, so a receiving transport can reconstruct it exactly.
func EncodeMsg(m protocol.Msg) ([]byte, error) {
	var b []byte
	return appendMsg(b, m)
}

// DecodeMsg deserializes one protocol message, returning the bytes
// consumed.
func DecodeMsg(data []byte) (protocol.Msg, int, error) {
	return decodeMsg(data, 0)
}

func decodeMsg(data []byte, depth int) (protocol.Msg, int, error) {
	if depth >= maxMsgNesting {
		return nil, 0, ErrNestingTooDeep
	}
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	var (
		m   protocol.Msg
		n   int
		err error
	)
	switch data[0] {
	case tagStreamMsg, tagStreamAck:
		m, n, err = readStreamBody(data[0], data[1:])
	default:
		m, n, err = readMsgBody(data[0], data[1:], depth)
	}
	if err != nil {
		return nil, 0, err
	}
	return m, n + 1, nil
}

// The δ-stream messages carry no accounting record: it is derived from
// their contents on decode, so the range — a start and a length — is
// their only metadata, and an ack is one watermark.

// readStreamHeader decodes a StreamMsg's range and item count, rejecting
// a range whose end overflows.
func readStreamHeader(data []byte) (start, end, count uint64, n int, err error) {
	start, n, err = readUvarint(data)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	span, m, err := readUvarint(data[n:])
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n += m
	if span > math.MaxUint64-start {
		return 0, 0, 0, 0, fmt.Errorf("codec: stream range %d+%d overflows", start, span)
	}
	count, m, err = readUvarint(data[n:])
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return start, start + span, count, n + m, nil
}

func readStreamBody(tag byte, data []byte) (protocol.Msg, int, error) {
	if tag == tagStreamAck {
		seq, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		return &protocol.StreamAckMsg{Seq: seq}, n, nil
	}
	start, end, count, n, err := readStreamHeader(data)
	if err != nil {
		return nil, 0, err
	}
	// Every item is at least a key length and a state tag: a hostile
	// count is bounded by the remaining bytes before allocating.
	items := make([]protocol.ObjectMsg, 0, capHint(count, data[n:]))
	for i := uint64(0); i < count; i++ {
		k, m, err := readString(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		st, m, err := readState(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		items = append(items, protocol.ObjectMsg{Key: k, Inner: protocol.DeltaOf(st)})
	}
	return protocol.NewStreamMsg(start, end, items), n, nil
}

func appendCost(b []byte, c metrics.Transmission) []byte {
	b = binary.AppendUvarint(b, uint64(c.Messages))
	b = binary.AppendUvarint(b, uint64(c.Elements))
	b = binary.AppendUvarint(b, uint64(c.PayloadBytes))
	return binary.AppendUvarint(b, uint64(c.MetadataBytes))
}

func readCost(data []byte) (metrics.Transmission, int, error) {
	var c metrics.Transmission
	n := 0
	for _, dst := range []*int{&c.Messages, &c.Elements, &c.PayloadBytes, &c.MetadataBytes} {
		v, m, err := readUvarint(data[n:])
		if err != nil {
			return c, 0, err
		}
		*dst = int(v)
		n += m
	}
	return c, n, nil
}

func appendVClock(b []byte, v *vclock.VClock) []byte {
	actors := v.Actors()
	b = binary.AppendUvarint(b, uint64(len(actors)))
	for _, a := range actors {
		b = appendString(b, a)
		b = binary.AppendUvarint(b, v.Get(a))
	}
	return b
}

func readVClock(data []byte) (*vclock.VClock, int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	v := vclock.New()
	for i := uint64(0); i < count; i++ {
		a, m, err := readString(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		s, m2, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m2
		v.Set(a, s)
	}
	return v, n, nil
}

func appendDot(b []byte, d vclock.Dot) []byte {
	b = appendString(b, d.Actor)
	return binary.AppendUvarint(b, d.Seq)
}

func readDot(data []byte) (vclock.Dot, int, error) {
	a, n, err := readString(data)
	if err != nil {
		return vclock.Dot{}, 0, err
	}
	s, m, err := readUvarint(data[n:])
	if err != nil {
		return vclock.Dot{}, 0, err
	}
	return vclock.Dot{Actor: a, Seq: s}, n + m, nil
}

func appendMsg(b []byte, m protocol.Msg) ([]byte, error) {
	switch v := m.(type) {
	case *protocol.StateMsg:
		b = append(b, tagStateMsg)
		b = appendCost(b, v.Cost())
		return appendState(b, v.State), nil

	case *protocol.DeltaMsg:
		b = append(b, tagDeltaMsg)
		b = appendCost(b, v.Cost())
		return appendState(b, v.Delta), nil

	case *protocol.SBDigestMsg:
		b = append(b, tagSBDigestMsg)
		b = appendCost(b, v.Cost())
		b = appendVClock(b, v.Vec)
		if v.Matrix == nil {
			return append(b, 0), nil
		}
		b = append(b, 1)
		// Deterministic order: sort the node keys.
		keys := make([]string, 0, len(v.Matrix))
		for k := range v.Matrix {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
			b = appendVClock(b, v.Matrix[k])
		}
		return b, nil

	case *protocol.SBDeltasMsg:
		b = append(b, tagSBDeltasMsg)
		b = appendCost(b, v.Cost())
		b = binary.AppendUvarint(b, uint64(len(v.Items)))
		for _, it := range v.Items {
			b = appendDot(b, it.Dot)
			b = appendState(b, it.Delta)
		}
		return b, nil

	case *protocol.OpsMsg:
		b = append(b, tagOpsMsg)
		b = appendCost(b, v.Cost())
		b = binary.AppendUvarint(b, uint64(len(v.Ops)))
		for _, op := range v.Ops {
			b = appendDot(b, op.Dot)
			b = appendVClock(b, op.Dep)
			b = binary.AppendUvarint(b, uint64(op.OpBytes))
			b = appendState(b, op.Payload)
		}
		return b, nil

	case *protocol.BatchMsg:
		b = AppendBatchHeader(b, v.Cost(), len(v.Items))
		for _, it := range v.Items {
			var err error
			b, err = AppendObjectMsg(b, it)
			if err != nil {
				return nil, err
			}
		}
		return b, nil

	case *protocol.ShardedMsg:
		b = AppendShardedHeader(b, v.Cost(), v.Digests, len(v.Items))
		for _, it := range v.Items {
			var err error
			b, err = AppendShardItem(b, it)
			if err != nil {
				return nil, err
			}
		}
		return b, nil

	case *protocol.DigestMsg:
		b = append(b, tagDigestMsg)
		b = appendCost(b, v.Cost())
		b = binary.AppendUvarint(b, uint64(len(v.Digests)))
		for _, d := range v.Digests {
			// Digests are hash values: fixed 8-byte words, since uvarint
			// averages >9 bytes on uniformly random 64-bit values.
			b = binary.BigEndian.AppendUint64(b, d)
		}
		b = binary.AppendUvarint(b, uint64(len(v.Want)))
		for _, w := range v.Want {
			b = binary.AppendUvarint(b, uint64(w))
		}
		return b, nil

	case *protocol.TreeMsg:
		if len(v.Nodes) != len(v.Hashes) {
			return nil, fmt.Errorf("codec: tree message with %d nodes but %d hashes", len(v.Nodes), len(v.Hashes))
		}
		b = append(b, tagTreeMsg)
		b = appendCost(b, v.Cost())
		b = binary.AppendUvarint(b, uint64(v.Shard))
		b = append(b, v.Level)
		b = binary.AppendUvarint(b, uint64(len(v.Query)))
		for _, q := range v.Query {
			b = binary.AppendUvarint(b, uint64(q))
		}
		b = binary.AppendUvarint(b, uint64(len(v.Nodes)))
		for i, idx := range v.Nodes {
			b = binary.AppendUvarint(b, uint64(idx))
			// Hashes are fixed 8-byte words, like digest vectors.
			b = binary.BigEndian.AppendUint64(b, v.Hashes[i])
		}
		b = binary.AppendUvarint(b, uint64(len(v.Want)))
		for _, w := range v.Want {
			b = binary.AppendUvarint(b, uint64(w))
		}
		return b, nil

	case *protocol.StreamMsg:
		if v.End < v.Start {
			return nil, fmt.Errorf("codec: stream range (%d, %d] runs backwards", v.Start, v.End)
		}
		b = append(b, tagStreamMsg)
		b = binary.AppendUvarint(b, v.Start)
		b = binary.AppendUvarint(b, v.End-v.Start)
		b = binary.AppendUvarint(b, uint64(len(v.Items)))
		for _, it := range v.Items {
			dm, ok := it.Inner.(*protocol.DeltaMsg)
			if !ok {
				return nil, fmt.Errorf("codec: stream item %q carries %T, want *DeltaMsg", it.Key, it.Inner)
			}
			b = appendString(b, it.Key)
			b = appendState(b, dm.Delta)
		}
		return b, nil

	case *protocol.StreamAckMsg:
		b = append(b, tagStreamAck)
		return binary.AppendUvarint(b, v.Seq), nil

	default:
		return nil, fmt.Errorf("codec: no wire format for message %T", m)
	}
}

// readShardItems decodes the shared tail of the sharded frame variants:
// an item count followed by (shard index, inner message) pairs.
func readShardItems(data []byte, depth int) ([]protocol.ShardItem, int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	items := make([]protocol.ShardItem, 0, capHint(count, data[n:]))
	for i := uint64(0); i < count; i++ {
		shard, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		if shard > math.MaxUint32 {
			// Truncating would alias a corrupt index into the valid
			// shard range, bypassing the receiver's bounds check.
			return nil, 0, fmt.Errorf("codec: shard index %d out of range", shard)
		}
		n += m
		inner, m2, err := decodeMsg(data[n:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		n += m2
		items = append(items, protocol.ShardItem{Shard: uint32(shard), Msg: inner})
	}
	return items, n, nil
}

func readMsgBody(tag byte, data []byte, depth int) (protocol.Msg, int, error) {
	cost, n, err := readCost(data)
	if err != nil {
		return nil, 0, err
	}
	switch tag {
	case tagStateMsg:
		s, m, err := readState(data[n:])
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewStateMsg(s, cost), n + m, nil

	case tagDeltaMsg:
		s, m, err := readState(data[n:])
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewDeltaMsg(s, cost), n + m, nil

	case tagSBDigestMsg:
		vec, m, err := readVClock(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		if len(data) <= n {
			return nil, 0, ErrTruncated
		}
		hasMatrix := data[n] == 1
		n++
		var matrix map[string]*vclock.VClock
		if hasMatrix {
			count, m2, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			matrix = make(map[string]*vclock.VClock, capHint(count, data[n:]))
			for i := uint64(0); i < count; i++ {
				k, m3, err := readString(data[n:])
				if err != nil {
					return nil, 0, err
				}
				n += m3
				v, m4, err := readVClock(data[n:])
				if err != nil {
					return nil, 0, err
				}
				n += m4
				matrix[k] = v
			}
		}
		return protocol.NewSBDigestMsg(vec, matrix, cost), n, nil

	case tagSBDeltasMsg:
		count, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		items := make([]protocol.SBItem, 0, capHint(count, data[n:]))
		for i := uint64(0); i < count; i++ {
			d, m2, err := readDot(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			s, m3, err := readState(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m3
			items = append(items, protocol.SBItem{Dot: d, Delta: s})
		}
		return protocol.NewSBDeltasMsg(items, cost), n, nil

	case tagOpsMsg:
		count, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		ops := make([]protocol.TaggedOp, 0, capHint(count, data[n:]))
		for i := uint64(0); i < count; i++ {
			d, m2, err := readDot(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			dep, m3, err := readVClock(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m3
			opBytes, m4, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m4
			payload, m5, err := readState(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m5
			ops = append(ops, protocol.TaggedOp{Dot: d, Dep: dep, Payload: payload, OpBytes: int(opBytes)})
		}
		return protocol.NewOpsMsg(ops, cost), n, nil

	case tagBatchMsg:
		count, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		items := make([]protocol.ObjectMsg, 0, capHint(count, data[n:]))
		for i := uint64(0); i < count; i++ {
			k, m2, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			inner, m3, err := decodeMsg(data[n:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			n += m3
			items = append(items, protocol.ObjectMsg{Key: k, Inner: inner})
		}
		return protocol.NewBatchMsg(items, cost), n, nil

	case tagShardedMsg:
		items, m, err := readShardItems(data[n:], depth)
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewShardedMsgWithCost(items, cost), n + m, nil

	case tagShardedDigestMsg:
		dcount, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		// Digests are fixed 8-byte words, so a hostile count is checked
		// against the actual remaining bytes before allocating.
		if dcount > uint64(len(data)-n)/8 {
			return nil, 0, ErrTruncated
		}
		// Non-nil even when empty: a decoded message must re-encode to the
		// same tag (the canonical fixed point), and nil selects the plain
		// sharded encoding.
		digests := make([]uint64, dcount)
		for i := range digests {
			digests[i] = binary.BigEndian.Uint64(data[n:])
			n += 8
		}
		items, m, err := readShardItems(data[n:], depth)
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewShardedDigestMsgWithCost(items, digests, cost), n + m, nil

	case tagDigestMsg:
		count, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		// Each digest is a fixed 8-byte word, so a hostile count is
		// checked against the actual remaining bytes before allocating.
		if count > uint64(len(data)-n)/8 {
			return nil, 0, ErrTruncated
		}
		var digests []uint64
		if count > 0 {
			digests = make([]uint64, count)
			for i := range digests {
				digests[i] = binary.BigEndian.Uint64(data[n:])
				n += 8
			}
		}
		wcount, m2, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m2
		var want []uint32
		if wcount > 0 {
			want = make([]uint32, 0, capHint(wcount, data[n:]))
			for i := uint64(0); i < wcount; i++ {
				w, m3, err := readUvarint(data[n:])
				if err != nil {
					return nil, 0, err
				}
				if w > math.MaxUint32 {
					// Same rule as sharded routing: never truncate a
					// corrupt shard index into the valid range.
					return nil, 0, fmt.Errorf("codec: shard index %d out of range", w)
				}
				n += m3
				want = append(want, uint32(w))
			}
		}
		return protocol.NewDigestMsg(digests, want, cost), n, nil

	case tagTreeMsg:
		shard, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		if shard > math.MaxUint32 {
			return nil, 0, fmt.Errorf("codec: shard index %d out of range", shard)
		}
		n += m
		if len(data) <= n {
			return nil, 0, ErrTruncated
		}
		level := data[n]
		n++
		// The level bounds every node index below: tree geometry is a
		// protocol constant, so a level outside the drill-down range is
		// corrupt on its face, exactly like an oversized shard index.
		if level < 1 || level > protocol.TreeDepth {
			return nil, 0, fmt.Errorf("codec: tree level %d out of range", level)
		}
		maxNode := uint64(protocol.TreeNodesAt(int(level)))
		query, m, err := readTreeIndices(data[n:], maxNode)
		if err != nil {
			return nil, 0, err
		}
		n += m
		ncount, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		// Each (node, hash) pair is at least 9 bytes, so a hostile count
		// is checked against the remaining bytes before allocating.
		if ncount > uint64(len(data)-n)/9 {
			return nil, 0, ErrTruncated
		}
		var nodes []uint32
		var hashes []uint64
		if ncount > 0 {
			nodes = make([]uint32, 0, ncount)
			hashes = make([]uint64, 0, ncount)
			for i := uint64(0); i < ncount; i++ {
				idx, m2, err := readUvarint(data[n:])
				if err != nil {
					return nil, 0, err
				}
				if idx >= maxNode {
					return nil, 0, fmt.Errorf("codec: tree node %d out of range at level %d", idx, level)
				}
				n += m2
				if len(data)-n < 8 {
					return nil, 0, ErrTruncated
				}
				nodes = append(nodes, uint32(idx))
				hashes = append(hashes, binary.BigEndian.Uint64(data[n:]))
				n += 8
			}
		}
		want, m, err := readTreeIndices(data[n:], maxNode)
		if err != nil {
			return nil, 0, err
		}
		n += m
		return protocol.NewTreeMsg(uint32(shard), level, query, nodes, hashes, want, cost), n, nil

	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
}

// readTreeIndices decodes one of a tree message's node-index lists,
// rejecting indices at or beyond maxNode (the node count of the message's
// level) — never truncating a corrupt index into the valid range.
func readTreeIndices(data []byte, maxNode uint64) ([]uint32, int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	var out []uint32
	if count > 0 {
		out = make([]uint32, 0, capHint(count, data[n:]))
		for i := uint64(0); i < count; i++ {
			v, m, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			if v >= maxNode {
				return nil, 0, fmt.Errorf("codec: tree node %d out of range", v)
			}
			n += m
			out = append(out, uint32(v))
		}
	}
	return out, n, nil
}
