package mapkeys

import (
	"slices"
	"testing"
)

func TestSorted(t *testing.T) {
	type id uint64
	m := map[id]string{30: "c", 10: "a", 20: "b"}
	if got := Sorted(m); !slices.Equal(got, []id{10, 20, 30}) {
		t.Errorf("Sorted = %v, want [10 20 30]", got)
	}
	if got := Sorted(map[string]int(nil)); len(got) != 0 {
		t.Errorf("Sorted(nil) = %v, want empty", got)
	}
}
