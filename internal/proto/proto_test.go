package proto

import "testing"

func TestSizeHooks(t *testing.T) {
	// The analytic size hooks must agree with real encodings.
	ta := TaskAssign{TaskID: 1, Payload: make([]byte, 256), Nodes: make([]uint32, 1000)}
	if got := TaskAssignSize(1000, 256); got != len(ta.Marshal()) {
		t.Errorf("TaskAssignSize = %d, encoded %d", got, len(ta.Marshal()))
	}
	ar := AggregateReply{TaskID: 1, OK: make([]uint32, 990), Unreachable: make([]uint32, 10)}
	if got := AggregateReplySize(1000, 10); got != len(ar.Marshal()) {
		t.Errorf("AggregateReplySize = %d, encoded %d", got, len(ar.Marshal()))
	}
	if AggregateReplySize(10, 20) != AggregateReplySize(10, 10) {
		t.Error("failed > nodeCount not clamped")
	}
}

func BenchmarkTaskAssignMarshal2K(b *testing.B) {
	m := TaskAssign{TaskID: 1, Payload: make([]byte, 4096), Nodes: make([]uint32, 2048)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}
