// Package proto defines the two ESlurm control-plane messages whose size
// the simulator charges from an encoding: the master→satellite task
// assignment with its sub-nodelist, and the satellite→master aggregated
// reply. Both have a compact binary encoding.
//
// The simulator transfers message *sizes*, not bytes, so the encoder's
// one consumer is the size model: core charges task and reply sizes
// through TaskAssignSize and AggregateReplySize, and TestSizeHooks holds
// those hooks to the real encodings. Job-load and heartbeat sizes are
// core.Config constants, not encodings.
//
// Determinism: encoding and size computation are pure functions of their
// inputs — byte-stable output, no clocks, no RNG — so the wire model
// cannot perturb the same-seed ⇒ same-trace contract.
package proto

import (
	"encoding/binary"
	"math"
)

// Version is the protocol version carried in every header.
const Version = 1

// MsgType discriminates control-plane messages.
type MsgType uint8

const (
	// MsgTaskAssign carries a broadcast sub-task from master to satellite.
	MsgTaskAssign MsgType = iota + 1
	// MsgAggregateReply carries a satellite's merged outcome to the master.
	MsgAggregateReply
)

// headerSize is version(1) + type(1) + body length(4).
const headerSize = 6

func appendHeader(b []byte, t MsgType, bodyLen int) []byte {
	b = append(b, Version, byte(t))
	return binary.BigEndian.AppendUint32(b, uint32(bodyLen))
}

// TaskAssign is the master→satellite broadcast sub-task (Section III-B):
// the payload to relay plus the sub-nodelist the satellite builds its
// FP-Tree over.
type TaskAssign struct {
	TaskID  uint64
	Payload []byte
	Nodes   []uint32
}

// Size returns the encoded size without encoding.
func (m *TaskAssign) Size() int {
	return headerSize + 8 + 4 + len(m.Payload) + 4 + 4*len(m.Nodes)
}

// Marshal encodes the message.
func (m *TaskAssign) Marshal() []byte {
	b := make([]byte, 0, m.Size())
	b = appendHeader(b, MsgTaskAssign, m.Size()-headerSize)
	b = binary.BigEndian.AppendUint64(b, m.TaskID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Payload)))
	b = append(b, m.Payload...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = binary.BigEndian.AppendUint32(b, n)
	}
	return b
}

// AggregateReply is the satellite→master merged outcome (the satellite's
// "initial data aggregation" role): a status per node of the sub-task,
// run-length friendly because failures are rare.
type AggregateReply struct {
	TaskID uint64
	// OK and Unreachable partition the sub-task's nodes.
	OK          []uint32
	Unreachable []uint32
}

// Size returns the encoded size without encoding.
func (m *AggregateReply) Size() int {
	return headerSize + 8 + 4 + 4*len(m.OK) + 4 + 4*len(m.Unreachable)
}

// Marshal encodes the message.
func (m *AggregateReply) Marshal() []byte {
	b := make([]byte, 0, m.Size())
	b = appendHeader(b, MsgAggregateReply, m.Size()-headerSize)
	b = binary.BigEndian.AppendUint64(b, m.TaskID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.OK)))
	for _, n := range m.OK {
		b = binary.BigEndian.AppendUint32(b, n)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Unreachable)))
	for _, n := range m.Unreachable {
		b = binary.BigEndian.AppendUint32(b, n)
	}
	return b
}

// TaskAssignSize is the size-model hook used by the master daemon: the
// encoded size of a task message carrying payloadLen bytes to nodeCount
// nodes.
func TaskAssignSize(nodeCount, payloadLen int) int {
	if nodeCount < 0 || payloadLen < 0 || nodeCount > math.MaxInt32 {
		return headerSize
	}
	return headerSize + 8 + 4 + payloadLen + 4 + 4*nodeCount
}

// AggregateReplySize is the size-model hook for a reply covering
// nodeCount nodes of which failed are unreachable.
func AggregateReplySize(nodeCount, failed int) int {
	if failed > nodeCount {
		failed = nodeCount
	}
	return headerSize + 8 + 4 + 4*(nodeCount-failed) + 4 + 4*failed
}
