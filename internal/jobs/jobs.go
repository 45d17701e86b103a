// Package jobs implements the master's job table: the job lifecycle state
// machine, the registry the scheduler draws from, and the multifactor
// priority with fair-share accounting. ESlurm deliberately "preserves the
// master node's global view of resources and jobs as well as the original
// efficient resource allocation and job scheduling logic" (Section II-C);
// this package is that retained Slurm-derived logic.
//
// Determinism: the registry iterates jobs in submission order and the
// multifactor priority breaks ties by job ID, so scheduling decisions are
// reproducible — no map-order dependence, no clocks, no RNG.
package jobs

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eslurm/internal/mapkeys"
)

// ID identifies a job within one registry.
type ID uint64

// State is a job's lifecycle state, following the slurmctld model.
type State int

const (
	// Pending: queued, waiting for resources.
	Pending State = iota
	// Configuring: resources allocated, launch broadcast in flight.
	Configuring
	// Running: processes spawned on all nodes.
	Running
	// Completing: termination broadcast in flight, reclaiming resources.
	Completing
	// Completed: finished successfully.
	Completed
	// Failed: exited with an error.
	Failed
	// Timeout: killed at its walltime limit.
	Timeout
	// Cancelled: removed by the user or administrator.
	Cancelled
)

func (s State) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Configuring:
		return "CONFIGURING"
	case Running:
		return "RUNNING"
	case Completing:
		return "COMPLETING"
	case Completed:
		return "COMPLETED"
	case Failed:
		return "FAILED"
	case Timeout:
		return "TIMEOUT"
	case Cancelled:
		return "CANCELLED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case Completed, Failed, Timeout, Cancelled:
		return true
	}
	return false
}

// validTransition reports whether from → to is a legal lifecycle step.
// A function rather than a package-level transition table keeps the
// lifecycle free of mutable global state (globalmut).
func validTransition(from, to State) bool {
	switch from {
	case Pending:
		return to == Configuring || to == Cancelled
	case Configuring:
		return to == Running || to == Failed || to == Cancelled
	case Running:
		return to == Completing || to == Failed || to == Timeout || to == Cancelled
	case Completing:
		return to == Completed || to == Failed || to == Timeout
	}
	return false
}

// Job is one job record.
type Job struct {
	ID        ID
	Name      string
	User      string
	Partition string
	Nodes     int
	Cores     int
	TimeLimit time.Duration

	SubmitAt time.Duration
	StartAt  time.Duration
	EndAt    time.Duration

	state    State
	priority float64
}

// State returns the current lifecycle state.
func (j *Job) State() State { return j.state }

// Priority returns the last computed multifactor priority.
func (j *Job) Priority() float64 { return j.priority }

// ErrBadTransition reports an illegal state change.
type ErrBadTransition struct {
	Job  ID
	From State
	To   State
}

func (e *ErrBadTransition) Error() string {
	return fmt.Sprintf("jobs: job %d cannot go %v -> %v", e.Job, e.From, e.To)
}

// Registry is the master's job table.
type Registry struct {
	nextID ID
	live   map[ID]*Job
	// done keeps the last historyCap terminal jobs (the "historical job
	// queue" the estimation framework trains on).
	done []*Job
	fs   *Fairshare
}

// historyCap is how many terminal jobs a registry keeps.
const historyCap = 10000

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		nextID: 1,
		live:   make(map[ID]*Job),
		fs:     NewFairshare(usageHalfLife),
	}
}

// Submit registers a new pending job and returns it.
func (r *Registry) Submit(name, user, partition string, nodes, cores int, limit, now time.Duration) *Job {
	j := &Job{
		ID: r.nextID, Name: name, User: user, Partition: partition,
		Nodes: nodes, Cores: cores, TimeLimit: limit,
		SubmitAt: now, state: Pending,
	}
	r.nextID++
	r.live[j.ID] = j
	return j
}

// Get returns a live or historical job by ID (nil if unknown/evicted).
func (r *Registry) Get(id ID) *Job {
	if j, ok := r.live[id]; ok {
		return j
	}
	for _, j := range r.done {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Transition moves a job to a new state at virtual time now, enforcing
// the lifecycle and maintaining timestamps, history and fair-share
// usage.
func (r *Registry) Transition(j *Job, to State, now time.Duration) error {
	if !validTransition(j.state, to) {
		return &ErrBadTransition{Job: j.ID, From: j.state, To: to}
	}
	switch to {
	case Running:
		j.StartAt = now
	case Completed, Failed, Timeout, Cancelled:
		j.EndAt = now
		if j.StartAt > 0 || j.state == Completing || j.state == Running {
			// Charge fair-share usage for the time actually held.
			held := now - j.StartAt
			if held > 0 {
				r.fs.Charge(j.User, float64(j.Nodes)*held.Seconds(), now)
			}
		}
	}
	j.state = to
	if to.Terminal() {
		delete(r.live, j.ID)
		r.done = append(r.done, j)
		if len(r.done) > historyCap {
			r.done = append(r.done[:0], r.done[len(r.done)-historyCap:]...)
		}
	}
	return nil
}

// History returns the retained terminal jobs, oldest first.
func (r *Registry) History() []*Job { return r.done }

// Fairshare exposes the registry's fair-share ledger (for administrative
// adjustment and tests).
func (r *Registry) Fairshare() *Fairshare { return r.fs }

// Pending returns the pending jobs ordered by descending multifactor
// priority (ties by submit time, then ID), recomputing priorities at now.
func (r *Registry) Pending(now time.Duration) []*Job {
	var out []*Job
	for _, id := range mapkeys.Sorted(r.live) {
		if j := r.live[id]; j.state == Pending {
			j.priority = score(j, r.fs, now)
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		if a.SubmitAt != b.SubmitAt {
			return a.SubmitAt < b.SubmitAt
		}
		return a.ID < b.ID
	})
	return out
}

// The multifactor priority, after Slurm's priority/multifactor plugin:
// weighted age, fair-share and job-size factors.
const (
	// ageWeight scales the age factor (queue wait / maxAge, capped at 1).
	ageWeight = 1000
	// fairshareWeight scales the fair-share factor 2^(−usage/shares).
	fairshareWeight = 2000
	// sizeWeight scales the job-size factor (favoring large jobs, as
	// Slurm's default does to fight large-job starvation).
	sizeWeight = 500
	// maxAge saturates the age factor.
	maxAge = 7 * 24 * time.Hour
	// maxNodes normalizes the size factor.
	maxNodes = 20480
	// usageHalfLife is the fair-share usage decay half-life.
	usageHalfLife = 7 * 24 * time.Hour
	// userShares is each user's normalized share: the fair-share factor
	// halves each time decayed usage grows by this many node-seconds
	// (1000 node-hours).
	userShares = 3600 * 1000
)

// score computes a job's multifactor priority at time now.
func score(j *Job, fs *Fairshare, now time.Duration) float64 {
	age := float64(now-j.SubmitAt) / float64(maxAge)
	if age > 1 {
		age = 1
	}
	if age < 0 {
		age = 0
	}
	size := float64(j.Nodes) / maxNodes
	if size > 1 {
		size = 1
	}
	return ageWeight*age + fairshareWeight*fs.Factor(j.User, now) + sizeWeight*size
}

// Fairshare tracks per-user decayed usage (node-seconds) and converts it
// to the classic 2^(−usage/shares) factor.
type Fairshare struct {
	halfLife time.Duration
	usage    map[string]float64
	lastAt   map[string]time.Duration
}

// NewFairshare builds an empty fair-share ledger.
func NewFairshare(halfLife time.Duration) *Fairshare {
	return &Fairshare{
		halfLife: halfLife,
		usage:    make(map[string]float64),
		lastAt:   make(map[string]time.Duration),
	}
}

// decayTo brings a user's usage up to date.
func (f *Fairshare) decayTo(user string, now time.Duration) {
	last, ok := f.lastAt[user]
	if !ok || now <= last {
		f.lastAt[user] = now
		return
	}
	dt := float64(now-last) / float64(f.halfLife)
	f.usage[user] *= math.Pow(0.5, dt)
	f.lastAt[user] = now
}

// Charge adds node-seconds of usage for a user at time now.
func (f *Fairshare) Charge(user string, nodeSeconds float64, now time.Duration) {
	f.decayTo(user, now)
	f.usage[user] += nodeSeconds
}

// Usage returns the decayed usage at now.
func (f *Fairshare) Usage(user string, now time.Duration) float64 {
	f.decayTo(user, now)
	return f.usage[user]
}

// Factor returns 2^(−usage/shares) in (0, 1]: 1 for an unused account,
// halving per userShares of decayed consumption.
func (f *Fairshare) Factor(user string, now time.Duration) float64 {
	f.decayTo(user, now)
	return math.Pow(2, -f.usage[user]/userShares)
}
