// Package trace models HPC workload traces: the job record (with the
// Table IV features), synthetic generators calibrated to the published
// statistics of the paper's two production traces (Table III: Tianhe-2A,
// 154,081 jobs; NG-Tianhe, 52,162 jobs), and the locality analyses behind
// Fig. 5 (runtime-overestimation CDF, job-correlation decay with
// submission interval and with job-ID gap).
//
// Determinism: synthetic generators draw from an explicit seeded
// rand.Rand and emit jobs in submission order, so a given seed always
// produces the identical workload — the precondition for every
// deterministic replay downstream.
package trace

import (
	"fmt"
	"sort"
	"time"
)

// Job is one submitted job. The first five fields are the features of
// Table IV; Runtime and UserEstimate drive scheduling and estimator
// evaluation.
type Job struct {
	// ID is the submission sequence number within its trace.
	ID int
	// Name identifies the application/script.
	Name string
	// User is the submitting user.
	User string
	// Nodes and Cores are the requested resources.
	Nodes int
	Cores int
	// Submit is the submission instant relative to trace start.
	Submit time.Duration
	// UserEstimate is the user-supplied walltime request (t_s).
	UserEstimate time.Duration
	// Runtime is the job's actual runtime (t_r).
	Runtime time.Duration
}

// SubmitHour returns the hour-of-day (0–23) of submission, the
// "submission time (hours only)" feature of Table IV.
func (j *Job) SubmitHour() int {
	return int(j.Submit/time.Hour) % 24
}

// P returns the user's runtime-estimation accuracy t_s/t_r (Fig. 5a);
// P > 1 is an overestimate.
func (j *Job) P() float64 {
	if j.Runtime <= 0 {
		return 0
	}
	return float64(j.UserEstimate) / float64(j.Runtime)
}

// Trace is a time-ordered sequence of jobs from one system.
type Trace struct {
	System string
	Jobs   []Job
}

// Validate checks trace invariants: IDs dense and increasing, submissions
// time-ordered, positive resources and runtimes.
func (t *Trace) Validate() error {
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if j.ID != i {
			return fmt.Errorf("trace: job %d has ID %d", i, j.ID)
		}
		if i > 0 && j.Submit < t.Jobs[i-1].Submit {
			return fmt.Errorf("trace: job %d submitted before its predecessor", i)
		}
		if j.Nodes <= 0 || j.Cores <= 0 {
			return fmt.Errorf("trace: job %d has nonpositive resources", i)
		}
		if j.Runtime <= 0 || j.UserEstimate <= 0 {
			return fmt.Errorf("trace: job %d has nonpositive times", i)
		}
	}
	return nil
}

// Duration returns the span from first to last submission.
func (t *Trace) Duration() time.Duration {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Submit - t.Jobs[0].Submit
}

// Correlated reports whether two jobs form a correlated pair under the
// paper's definition: "similar job names, required resources, and job
// runtime". We require equal names, node counts within 25%, and runtimes
// within a factor of two.
func Correlated(a, b *Job) bool {
	if a.Name != b.Name {
		return false
	}
	na, nb := float64(a.Nodes), float64(b.Nodes)
	if na > nb*1.25 || nb > na*1.25 {
		return false
	}
	ra, rb := float64(a.Runtime), float64(b.Runtime)
	if ra > rb*2 || rb > ra*2 {
		return false
	}
	return true
}

// OverestimateFraction returns the fraction of jobs with P > 1 (the paper
// reports 80–90% across both traces).
func (t *Trace) OverestimateFraction() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	k := 0
	for i := range t.Jobs {
		if t.Jobs[i].P() > 1 {
			k++
		}
	}
	return float64(k) / float64(len(t.Jobs))
}

// PCDF returns the cumulative distribution of P = t_s/t_r evaluated at the
// given thresholds (Fig. 5a): out[i] is the fraction of jobs with
// P ≤ thresholds[i].
func (t *Trace) PCDF(thresholds []float64) []float64 {
	ps := make([]float64, len(t.Jobs))
	for i := range t.Jobs {
		ps[i] = t.Jobs[i].P()
	}
	sort.Float64s(ps)
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		out[i] = float64(sort.SearchFloat64s(ps, th+1e-12)) / float64(max(1, len(ps)))
	}
	return out
}

// LongJobEveningFraction returns the fraction of jobs with runtime longer
// than six hours that were submitted between 18:00 and 24:00 (the paper
// reports 71.4%).
func (t *Trace) LongJobEveningFraction() float64 {
	long, evening := 0, 0
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if j.Runtime > 6*time.Hour {
			long++
			if h := j.SubmitHour(); h >= 18 {
				evening++
			}
		}
	}
	if long == 0 {
		return 0
	}
	return float64(evening) / float64(long)
}

// ResubmissionProbability24h returns the probability that a job's name was
// already submitted by the same user within the preceding 24 hours (the
// paper reports 89.2%).
func (t *Trace) ResubmissionProbability24h() float64 {
	type key struct{ user, name string }
	last := make(map[key]time.Duration)
	hits, total := 0, 0
	for i := range t.Jobs {
		j := &t.Jobs[i]
		k := key{j.User, j.Name}
		if prev, ok := last[k]; ok {
			total++
			if j.Submit-prev <= 24*time.Hour {
				hits++
			}
		}
		last[k] = j.Submit
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
