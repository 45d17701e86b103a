package estimate

import (
	"bytes"
	"testing"

	"eslurm/internal/trace"
)

// FuzzLoadState feeds arbitrary snapshots to LoadState, which refits the
// model from whatever history it decodes — all-equal rows, zero runtimes, a
// single job. It must return an error or nil, never panic or hang, and a
// framework it restored must still answer Estimate.
func FuzzLoadState(f *testing.F) {
	jobs := replayTrace(300)
	save := func(history []trace.Job) []byte {
		fw := NewFramework(FrameworkConfig{})
		for _, j := range history {
			fw.Observe(j)
		}
		var buf bytes.Buffer
		if err := fw.SaveState(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(save(jobs))
	same := make([]trace.Job, len(jobs))
	zero := make([]trace.Job, len(jobs))
	for i := range jobs {
		same[i] = jobs[0]
		same[i].Submit = jobs[i].Submit
		zero[i] = jobs[i]
		zero[i].Runtime = 0
	}
	f.Add(save(same))
	f.Add(save(zero))
	f.Add(save(jobs[:1]))
	f.Add([]byte(`{"version":1,"history":[]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, b []byte) {
		fw := NewFramework(FrameworkConfig{MinTrain: 1})
		if err := fw.LoadState(bytes.NewReader(b)); err != nil {
			return
		}
		fw.Estimate(&jobs[0])
	})
}
