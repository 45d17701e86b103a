package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseSWF feeds arbitrary text to ParseSWF. It must return an error or
// a trace that passes Validate, whose node counts cover its core counts, and
// that survives WriteSWF → ParseSWF with every field but the name intact —
// never panic, and never wrap a huge field into a negative time or count.
func FuzzParseSWF(f *testing.F) {
	var sb strings.Builder
	if err := Generate(Tianhe2AConfig(20)).WriteSWF(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String(), 24)
	f.Add("; comment\n\n1 0 5 3600 64 -1 -1 64 7200 -1 1 42 -1 7 -1 -1 -1 -1\n", 24)
	f.Add("2 60 -1 100 -1 -1 -1 24 -1 -1 1 42 -1 7 -1 -1 -1 -1\n", 0)
	f.Add("1 0 -1 10 1 -1 -1 -1 10 -1 -1 1\n", 96)
	f.Add("1 100 -1 10 1 -1 -1 1 10 -1 -1 1\n2 50 -1 10 1 -1 -1 1 10 -1 -1 1\n", 24)
	f.Add("1 0 -1\n", 24)
	// Fields whose seconds overflowed a time.Duration into a negative
	// runtime, estimate or submit time, and a core count whose node count
	// wrapped to one.
	f.Add("1 0 -1 9223372036854775807 1 -1 -1 1 10 -1 -1 1\n", 24)
	f.Add("1 0 -1 5000000000 1 -1 -1 1 -1 -1 -1 1\n", 24)
	f.Add("1 9223372036854775807 -1 10 1 -1 -1 1 10 -1 -1 1\n", 24)
	f.Add("1 0 -1 10 1 -1 -1 9223372036854775807 10 -1 -1 1\n", 24)
	f.Fuzz(func(t *testing.T, text string, coresPerNode int) {
		tr, err := ParseSWF(strings.NewReader(text), coresPerNode)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if coresPerNode <= 0 {
			coresPerNode = 24
		}
		for i, j := range tr.Jobs {
			want := j.Cores / coresPerNode
			if j.Cores%coresPerNode != 0 {
				want++
			}
			if j.Nodes != want {
				t.Fatalf("job %d: %d nodes for %d cores at %d per node", i, j.Nodes, j.Cores, coresPerNode)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteSWF(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSWF(&buf, coresPerNode)
		if err != nil {
			t.Fatalf("re-parsing its own output: %v", err)
		}
		if len(back.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip kept %d of %d jobs", len(back.Jobs), len(tr.Jobs))
		}
		for i := range tr.Jobs {
			a, b := tr.Jobs[i], back.Jobs[i]
			b.Name = a.Name // SWF export writes no application field
			if a != b {
				t.Fatalf("job %d: %+v round-tripped to %+v", i, a, b)
			}
		}
	})
}
