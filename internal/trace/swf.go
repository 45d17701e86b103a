package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// This file implements the Standard Workload Format (SWF) used by the
// Parallel Workloads Archive — the lingua franca of HPC scheduling
// research. WriteSWF lets the synthetic traces feed external simulators;
// ParseSWF lets real archive traces replay through this repository's
// scheduler and estimation framework.
//
// SWF is line-oriented: 18 whitespace-separated fields per job, comments
// starting with ';'. Fields used here (1-indexed, as in the spec):
//
//	 1 job number        2 submit time (s)    3 wait time (s)
//	 4 run time (s)      5 used processors    8 requested processors
//	 9 requested time    12 user ID           (others written as -1)

// WriteSWF renders the trace in Standard Workload Format, including a
// small header of ';' comments.
func (t *Trace) WriteSWF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; SWF export of synthetic trace %q (%d jobs)\n", t.System, len(t.Jobs))
	fmt.Fprintf(bw, "; generated by the eslurm reproduction; times in seconds\n")
	for i := range t.Jobs {
		j := &t.Jobs[i]
		// Fields: 1 job, 2 submit, 3 wait(-1: not scheduled here), 4 run,
		// 5 usedProcs, 6 avgCPU(-1), 7 usedMem(-1), 8 reqProcs, 9 reqTime,
		// 10 reqMem(-1), 11 status(-1), 12 uid, 13 gid(-1), 14 app(-1),
		// 15 queue(-1), 16 partition(-1), 17 precedingJob(-1), 18 think(-1).
		fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d %d -1 -1 %d -1 -1 -1 -1 -1 -1\n",
			j.ID+1,
			int64(j.Submit.Seconds()),
			int64(j.Runtime.Seconds()),
			j.Cores,
			j.Cores,
			int64(j.UserEstimate.Seconds()),
			swfUserID(j.User),
		)
	}
	return bw.Flush()
}

// swfUserID maps user names like "user042" to numeric IDs; unknown shapes
// hash into a stable small range.
func swfUserID(user string) int {
	if strings.HasPrefix(user, "user") {
		if n, err := strconv.Atoi(user[4:]); err == nil {
			return n
		}
	}
	h := 0
	for _, r := range user {
		h = h*31 + int(r)
	}
	if h < 0 {
		h = -h
	}
	return h % 100000
}

// maxSWFSeconds bounds every SWF time field, so that twice it (a missing
// estimate defaults to twice the runtime) is still a time.Duration.
const maxSWFSeconds = math.MaxInt64 / int64(2*time.Second)

// ParseSWF reads a Standard Workload Format trace. coresPerNode converts
// processor requests to node counts (0 defaults to 24). Job names are
// synthesized from the SWF application/user fields so the estimation
// framework's name feature remains meaningful: jobs sharing (app, user)
// share a name.
func ParseSWF(r io.Reader, coresPerNode int) (*Trace, error) {
	if coresPerNode <= 0 {
		coresPerNode = 24
	}
	tr := &Trace{System: "swf"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 12 {
			return nil, fmt.Errorf("swf line %d: %d fields, want >= 12", lineNo, len(f))
		}
		get := func(i int) (int64, error) {
			v, err := strconv.ParseInt(f[i-1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("swf line %d field %d: %v", lineNo, i, err)
			}
			return v, nil
		}
		secs := func(i int) (int64, error) {
			v, err := get(i)
			if err == nil && (v > maxSWFSeconds || v < -maxSWFSeconds) {
				err = fmt.Errorf("swf line %d field %d: %d s is out of range", lineNo, i, v)
			}
			return v, err
		}
		if _, err := get(1); err != nil { // job number, validated only
			return nil, err
		}
		submit, err := secs(2)
		if err != nil {
			return nil, err
		}
		runSec, err := secs(4)
		if err != nil {
			return nil, err
		}
		reqProcs, err := get(8)
		if err != nil {
			return nil, err
		}
		if reqProcs <= 0 {
			if used, err2 := get(5); err2 == nil && used > 0 {
				reqProcs = used
			}
		}
		reqTime, err := secs(9)
		if err != nil {
			return nil, err
		}
		uid, err := get(12)
		if err != nil {
			return nil, err
		}
		app := int64(-1)
		if len(f) >= 14 {
			if v, err := get(14); err == nil {
				app = v
			}
		}
		if runSec <= 0 || reqProcs <= 0 {
			continue // cancelled or malformed jobs, as archive traces contain
		}
		nodes := int(reqProcs / int64(coresPerNode))
		if reqProcs%int64(coresPerNode) != 0 {
			nodes++
		}
		est := time.Duration(reqTime) * time.Second
		if reqTime <= 0 {
			est = time.Duration(runSec) * 2 * time.Second
		}
		tr.Jobs = append(tr.Jobs, Job{
			ID:           len(tr.Jobs),
			Name:         fmt.Sprintf("app%d-u%d", app, uid),
			User:         fmt.Sprintf("user%03d", uid),
			Nodes:        nodes,
			Cores:        int(reqProcs),
			Submit:       time.Duration(submit) * time.Second,
			UserEstimate: est,
			Runtime:      time.Duration(runSec) * time.Second,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Archive traces are submit-ordered, but be defensive: re-ID after a
	// stable check.
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			return nil, fmt.Errorf("swf: jobs not in submit order at record %d", i)
		}
	}
	return tr, nil
}
