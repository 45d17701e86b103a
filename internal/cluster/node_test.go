package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"eslurm/internal/simnet"
)

// pointerKinds are the kinds whose values hold a pointer the garbage
// collector must follow.
func pointerKinds() map[reflect.Kind]bool {
	return map[reflect.Kind]bool{
		reflect.Pointer: true, reflect.UnsafePointer: true, reflect.Map: true, reflect.Chan: true,
		reflect.Func: true, reflect.Interface: true, reflect.Slice: true, reflect.String: true,
	}
}

// pointerPaths returns the path of every pointer-bearing field under t.
func pointerPaths(t reflect.Type, path string) []string {
	switch {
	case pointerKinds()[t.Kind()]:
		return []string{path + " (" + t.Kind().String() + ")"}
	case t.Kind() == reflect.Array:
		return pointerPaths(t.Elem(), path+"[]")
	case t.Kind() == reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			out = append(out, pointerPaths(t.Field(i).Type, path+"."+t.Field(i).Name)...)
		}
		return out
	}
	return nil
}

// TestNodeIsPointerFree: a cluster's node block is one value per node the
// garbage collector never scans, so a Node may hold no pointer-bearing
// field, and it stays within 16 bytes: the meter lives apart, and only
// the daemons have one.
func TestNodeIsPointerFree(t *testing.T) {
	if paths := pointerPaths(reflect.TypeOf(Node{}), "Node"); len(paths) != 0 {
		t.Errorf("Node holds pointers: %v", paths)
	}
	if size := unsafe.Sizeof(Node{}); size > 16 {
		t.Errorf("Node is %d bytes, budget 16", size)
	}
}

// TestFlightFitsItsSizeClass: a message in flight holds one pooled flight,
// so a flight's size class is paid once per concurrent message; past 64
// bytes it rounds up to the 80-byte class.
func TestFlightFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(flight{}); size > 64 {
		t.Errorf("flight is %d bytes, budget 64", size)
	}
}

// TestAllocsClusterBytesPerNode budgets what building a cluster allocates
// per node: the node block and the compute list, and little else, at the
// paper's NG-Tianhe scale (20,480 computes).
func TestAllocsClusterBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const computes, budget = 20480, 27.0
	e := simnet.NewEngine(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(e, Config{Computes: computes, Satellites: 1})
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.Size())
	if per > budget {
		t.Errorf("cluster.New allocated %d bytes for %d nodes: %.1f per node, budget %.0f",
			after.TotalAlloc-before.TotalAlloc, c.Size(), per, budget)
	}
	t.Logf("%.1f bytes per node", per)
}
