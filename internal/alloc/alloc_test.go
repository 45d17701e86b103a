package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eslurm/internal/cluster"
	"eslurm/internal/topo"
)

func ids(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(i)
	}
	return out
}

func newAlloc(n int) *TopoAware { return NewTopoAware(ids(n), topo.Default()) }

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newAlloc(100)
	got, ok := a.Alloc(10)
	if !ok || len(got) != 10 {
		t.Fatalf("Alloc(10) = %v, %v", got, ok)
	}
	if a.FreeCount() != 90 {
		t.Fatalf("FreeCount = %d", a.FreeCount())
	}
	a.Free(got)
	if a.FreeCount() != 100 {
		t.Fatalf("FreeCount after free = %d", a.FreeCount())
	}
}

func TestAllocRefusesOversized(t *testing.T) {
	a := newAlloc(10)
	if _, ok := a.Alloc(11); ok {
		t.Error("oversized alloc succeeded")
	}
	if a.FreeCount() != 10 {
		t.Error("failed alloc leaked state")
	}
	if _, ok := a.Alloc(0); ok {
		t.Error("zero alloc succeeded")
	}
}

func TestNoDoubleAllocation(t *testing.T) {
	a := newAlloc(64)
	seen := map[cluster.NodeID]bool{}
	for i := 0; i < 8; i++ {
		got, ok := a.Alloc(8)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("node %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	if _, ok := a.Alloc(1); ok {
		t.Fatal("allocated from an empty pool")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newAlloc(10)
	got, _ := a.Alloc(2)
	a.Free(got)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(got)
}

func TestForeignFreePanics(t *testing.T) {
	a := newAlloc(10)
	defer func() {
		if recover() == nil {
			t.Error("foreign free did not panic")
		}
	}()
	a.Free([]cluster.NodeID{999})
}

func TestTopoAwareMinimizesRacks(t *testing.T) {
	tp := topo.Default() // 512 per rack
	ta := NewTopoAware(ids(2048), tp)
	// Allocate 4 x 300 so every rack keeps 212 free.
	for i := 0; i < 4; i++ {
		if _, ok := ta.Alloc(300); !ok {
			t.Fatal("fragmentation alloc failed")
		}
	}
	// A 200-node job fits in one rack's remainder.
	got, _ := ta.Alloc(200)
	if RacksSpanned(tp, got) != 1 {
		t.Errorf("topo-aware spanned %d racks, want 1", RacksSpanned(tp, got))
	}
}

func TestTopoAwareSpillsAcrossFewestRacks(t *testing.T) {
	tp := topo.Default()
	ta := NewTopoAware(ids(2048), tp)
	// A job bigger than any rack spans exactly ceil(n/512) racks.
	got, ok := ta.Alloc(1000)
	if !ok {
		t.Fatal("alloc failed")
	}
	if spans := RacksSpanned(tp, got); spans != 2 {
		t.Errorf("1000-node job spans %d racks, want 2", spans)
	}
}

// Property: for any alloc/free sequence, the free count is consistent and
// no node is ever handed out twice concurrently.
func TestPropertyAllocatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newAlloc(256)
		live := map[cluster.NodeID]bool{}
		var held [][]cluster.NodeID
		free := 256
		for op := 0; op < 100; op++ {
			if rng.Float64() < 0.6 || len(held) == 0 {
				n := 1 + rng.Intn(60)
				got, ok := a.Alloc(n)
				if ok != (n <= free) {
					return false
				}
				if !ok {
					continue
				}
				for _, id := range got {
					if live[id] {
						return false
					}
					live[id] = true
				}
				held = append(held, got)
				free -= n
			} else {
				i := rng.Intn(len(held))
				batch := held[i]
				held = append(held[:i], held[i+1:]...)
				a.Free(batch)
				for _, id := range batch {
					delete(live, id)
				}
				free += len(batch)
			}
			if a.FreeCount() != free {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTopoAwareAlloc20K(b *testing.B) {
	tp := topo.Default()
	a := NewTopoAware(ids(20480), tp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, ok := a.Alloc(1024)
		if !ok {
			b.Fatal("alloc failed")
		}
		a.Free(got)
	}
}
