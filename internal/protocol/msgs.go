package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/vclock"
)

// Message constructors used by transports that deserialize messages from
// the wire (package codec). Engines construct messages internally and do
// not need these.

// NewStateMsg builds a StateMsg with explicit accounting.
func NewStateMsg(s lattice.State, cost metrics.Transmission) *StateMsg {
	return &StateMsg{State: s, cost: cost}
}

// NewDeltaMsg builds a DeltaMsg with explicit accounting.
func NewDeltaMsg(d lattice.State, cost metrics.Transmission) *DeltaMsg {
	return &DeltaMsg{Delta: d, cost: cost}
}

// NewSBDigestMsg builds an SBDigestMsg with explicit accounting.
func NewSBDigestMsg(vec *vclock.VClock, matrix map[string]*vclock.VClock, cost metrics.Transmission) *SBDigestMsg {
	return &SBDigestMsg{Vec: vec, Matrix: matrix, cost: cost}
}

// NewSBDeltasMsg builds an SBDeltasMsg with explicit accounting.
func NewSBDeltasMsg(items []SBItem, cost metrics.Transmission) *SBDeltasMsg {
	return &SBDeltasMsg{Items: items, cost: cost}
}

// NewOpsMsg builds an OpsMsg with explicit accounting.
func NewOpsMsg(ops []TaggedOp, cost metrics.Transmission) *OpsMsg {
	return &OpsMsg{Ops: ops, cost: cost}
}

// NewBatchMsg builds a BatchMsg with explicit accounting.
func NewBatchMsg(items []ObjectMsg, cost metrics.Transmission) *BatchMsg {
	return &BatchMsg{Items: items, cost: cost}
}
