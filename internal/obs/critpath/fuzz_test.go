package critpath_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"eslurm/internal/obs/critpath"
)

// FuzzParse feeds arbitrary text to Parse. When sign is set the harness
// appends the body's true digest trailer, so the fuzzer reaches the line
// parsers behind the checksum; unsigned inputs exercise the trailer
// checks. Parse must return an error or a report whose WriteText form
// parses back to the same bytes — never panic.
func FuzzParse(f *testing.F) {
	golden, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden), false)
	body := string(golden[:strings.LastIndex(string(golden), "digest=")])
	f.Add(body, true)
	f.Add("critpath report v1\nsources=0 spans=0 roots=0 open=0 orphans=0 instants=0\ntotal time=0s\n", true)
	f.Add("critpath report v1\n\n\n", true)
	f.Add("critpath report v1\nsources=1 spans=1 roots=1 open=0 orphans=0 instants=0\ntotal time=1s\n  kind a time=1s segs=1 share=1\n", true)
	// A path line without a chain field: it must write back parseably.
	f.Add("critpath report v1\nsources=1 spans=1 roots=1 open=0 orphans=0 instants=0\ntotal time=1s\npath 1 dur=1s label=\"a\" group=\"b\"\n", true)
	f.Add("critpath report v1\nsources=1 spans=1 roots=1 open=0 orphans=0 instants=0\ntotal time=1s\ngroup \"g\" roots=-1 time=1s\n", true)
	f.Add("critpath report v1\nx\ny\ndigest=zz\n", false)
	f.Fuzz(func(t *testing.T, text string, sign bool) {
		if sign {
			h := fnv.New64a()
			h.Write([]byte(text))
			text += fmt.Sprintf("digest=%016x\n", h.Sum64())
		}
		rep, err := critpath.Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		out := rep.String()
		back, err := critpath.Parse(strings.NewReader(out))
		if err != nil {
			t.Fatalf("re-parsing its own output: %v\n%s", err, out)
		}
		if again := back.String(); again != out {
			t.Fatalf("round trip changed the report:\n%s\nbecame\n%s", out, again)
		}
	})
}
