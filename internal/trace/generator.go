package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// GenConfig parameterizes the synthetic workload generator. Defaults are
// calibrated so the generated traces reproduce the statistics the paper
// publishes about its production traces: 80–90% runtime overestimation,
// ~89% same-job resubmission within 24 h, ~71% of >6 h jobs submitted in
// the evening, and the correlation-decay shapes of Fig. 5b/5c (short-
// interval locality decaying to a system-maturity-dependent floor).
type GenConfig struct {
	// System labels the trace ("Tianhe-2A" or "NG-Tianhe").
	System string
	// Jobs is the number of jobs to generate.
	Jobs int
	// Days is the trace span.
	Days int
	// Users is the size of the user population.
	Users int
	// AppsPerUser is each user's application-pool size.
	AppsPerUser int
	// MaxNodes caps a job's node request.
	MaxNodes int
	// CoresPerNode converts node to core requests.
	CoresPerNode int
	// StableUsers is the fraction of users who rerun the same
	// applications for months (Tianhe-2A's mature population). The
	// remainder churn their applications every few sessions (NG-Tianhe's
	// young population), which kills long-interval correlation (Fig. 5b).
	StableUsers float64
	// FamilySkew is the Zipf exponent of application-family popularity. A
	// mature system concentrates on a few dominant applications (high
	// skew → high long-interval correlation floor); a young system's mix
	// is flat.
	FamilySkew float64
	// Variants is the number of script variants per family in circulation
	// (job names are family-vN). A mature system converges on one
	// canonical script; a young one has several competing.
	Variants int
	// Seed drives all randomness.
	Seed int64
}

// Tianhe2AConfig returns the generator calibration for the mature
// Tianhe-2A trace (Table III: 154,081 jobs over ~4 months; pass your own
// job count — smaller defaults keep experiments fast).
func Tianhe2AConfig(jobs int) GenConfig {
	return GenConfig{
		System: "Tianhe-2A", Jobs: jobs, Days: 30, Users: 120, AppsPerUser: 3,
		MaxNodes: 4096, CoresPerNode: 24, StableUsers: 0.85, FamilySkew: 2.5, Variants: 1,
		Seed: 20210601,
	}
}

// NGTianheConfig returns the generator calibration for the young NG-Tianhe
// trace (Table III: 52,162 jobs; correlation decays to ~0 past 30 h).
func NGTianheConfig(jobs int) GenConfig {
	return GenConfig{
		System: "NG-Tianhe", Jobs: jobs, Days: 30, Users: 200, AppsPerUser: 5,
		MaxNodes: 20480, CoresPerNode: 96, StableUsers: 0.15, FamilySkew: 0.6, Variants: 3,
		Seed: 20211001,
	}
}

// appFamilies reflects the paper's workload description: CFD,
// electromagnetics, combustion, nonlinear flows, bio-informatics and
// mechanical analyses.
//
//eslurmlint:ignore globalmut read-only name catalogue; only ever indexed by the generator, never written or handed out, so it cannot carry state between runs or workers
var appFamilies = []string{
	"cfd-sim", "em-field", "engine-comb", "nonlin-flow", "bioinf-align",
	"mech-strength", "wrf-fcst", "md-dynamics", "qcd-lattice", "seismic-inv",
}

// familyProfile is the shared characteristic of one application family:
// many users run the same code at similar scales, which is what makes
// cross-user job pairs correlate ("similar job names, required resources,
// and job runtime").
type familyProfile struct {
	name       string
	medianRun  time.Duration
	nodes      int
	longRunner bool
}

// app is one user's instance of a family (a submission script).
type app struct {
	profile   familyProfile
	name      string
	baseRun   time.Duration
	runSpread float64
	nodes     int
}

// Generate synthesizes a workload trace. The result is sorted by
// submission time with dense IDs and always passes Validate.
func Generate(cfg GenConfig) *Trace {
	if cfg.Jobs <= 0 {
		return &Trace{System: cfg.System}
	}
	if cfg.Days <= 0 {
		cfg.Days = 30
	}
	if cfg.Users <= 0 {
		cfg.Users = 100
	}
	if cfg.AppsPerUser <= 0 {
		cfg.AppsPerUser = 4
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 4096
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 24
	}
	if cfg.FamilySkew == 0 {
		cfg.FamilySkew = 1.0
	}
	if cfg.Variants <= 0 {
		cfg.Variants = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Shared family profiles: two of the ten families are long-runners.
	profiles := make([]familyProfile, len(appFamilies))
	for i, name := range appFamilies {
		long := i == 3 || i == 7
		var median time.Duration
		if long {
			median = time.Duration(7+rng.Float64()*6) * time.Hour
		} else {
			median = time.Duration(3+rng.ExpFloat64()*25) * time.Minute
		}
		maxExp := math.Log2(float64(cfg.MaxNodes) / 4)
		if maxExp < 1 {
			maxExp = 1
		}
		profiles[i] = familyProfile{
			name:       name,
			medianRun:  median,
			nodes:      1 << int(rng.Float64()*maxExp),
			longRunner: long,
		}
	}
	// Zipf-like family popularity.
	famWeights := make([]float64, len(profiles))
	famTotal := 0.0
	for i := range famWeights {
		famWeights[i] = 1 / math.Pow(float64(i+1), cfg.FamilySkew)
		famTotal += famWeights[i]
	}
	pickFamily := func() familyProfile {
		r := rng.Float64() * famTotal
		for i, w := range famWeights {
			r -= w
			if r <= 0 {
				return profiles[i]
			}
		}
		return profiles[len(profiles)-1]
	}
	newApp := func() app {
		p := pickFamily()
		// Users share family names and scales with mild personal jitter,
		// so cross-user pairs still count as correlated.
		variant := rng.Intn(cfg.Variants)
		nodes := p.nodes
		if r := rng.Float64(); r < 0.20 && nodes > 1 {
			nodes /= 2
		} else if r > 0.90 && nodes*2 <= cfg.MaxNodes {
			nodes *= 2
		}
		// Most production apps rerun with near-identical runtimes (same
		// input deck); a minority are input-sensitive and vary wildly.
		// This mixture is what makes Table VIII's slack sweep work: a 5%
		// slack absorbs almost all underestimation on the tight majority.
		spread := 0.01 + rng.Float64()*0.05
		if rng.Float64() < 0.12 {
			spread = 0.25 + rng.Float64()*0.45
		}
		return app{
			profile:   p,
			name:      fmt.Sprintf("%s-v%d", p.name, variant),
			baseRun:   time.Duration(float64(p.medianRun) * (0.95 + rng.Float64()*0.1)),
			runSpread: spread,
			nodes:     nodes,
		}
	}

	type user struct {
		name   string
		apps   []app
		stable bool
		weight float64
	}
	users := make([]user, cfg.Users)
	totalW := 0.0
	for u := range users {
		usr := user{
			name:   fmt.Sprintf("user%03d", u),
			stable: rng.Float64() < cfg.StableUsers,
			// Heavy-tailed activity: a few users dominate submissions,
			// as in real traces.
			weight: math.Exp(1.5 * rng.NormFloat64()),
		}
		for a := 0; a < cfg.AppsPerUser; a++ {
			usr.apps = append(usr.apps, newApp())
		}
		users[u] = usr
		totalW += usr.weight
	}

	span := time.Duration(cfg.Days) * 24 * time.Hour
	jobs := make([]Job, 0, cfg.Jobs)

	emit := func(a app, usr *user, submit time.Duration) bool {
		if submit > span || len(jobs) >= cfg.Jobs {
			return false
		}
		// Weak scaling: running the family's problem on fewer (more) nodes
		// than its characteristic count lengthens (shortens) the runtime.
		scale := math.Pow(float64(a.profile.nodes)/float64(a.nodes), 0.7)
		runtime := lognormalDuration(rng, time.Duration(float64(a.baseRun)*scale), a.runSpread)
		jobs = append(jobs, Job{
			Name:         a.name,
			User:         usr.name,
			Nodes:        a.nodes,
			Submit:       submit,
			UserEstimate: userEstimate(rng, runtime),
			Runtime:      runtime,
		})
		return true
	}

	// Session-based submission: pick a user, then emit a burst of repeated
	// submissions of one app. Sweep sessions (large bursts of short jobs
	// minutes apart) are what give real traces their short-interval
	// correlation spike; long-runner sessions resubmit on successive
	// evenings.
	for len(jobs) < cfg.Jobs {
		r := rng.Float64() * totalW
		ui := 0
		for i := range users {
			r -= users[i].weight
			if r <= 0 {
				ui = i
				break
			}
		}
		usr := &users[ui]
		if !usr.stable && rng.Float64() < 0.3 {
			usr.apps[rng.Intn(len(usr.apps))] = newApp()
		}
		a := usr.apps[rng.Intn(len(usr.apps))]
		start := sessionStartTime(rng, span, a.profile.longRunner)

		switch {
		case a.profile.longRunner:
			// One submission per evening across a few days.
			n := 1 + rng.Intn(3)
			for b := 0; b < n; b++ {
				jitter := time.Duration((rng.Float64() - 0.5) * float64(2*time.Hour))
				if !emit(a, usr, start+time.Duration(b)*24*time.Hour+jitter) {
					break
				}
			}
		case rng.Float64() < 0.3:
			// Parameter sweep: tens of near-identical jobs minutes apart.
			n := 8 + rng.Intn(20)
			at := start
			for b := 0; b < n; b++ {
				if !emit(a, usr, at) {
					break
				}
				at += time.Duration(30*time.Second) + time.Duration(rng.ExpFloat64()*float64(3*time.Minute))
			}
		default:
			// Interactive session: a handful of resubmissions over hours.
			n := 1 + rng.Intn(6)
			at := start
			for b := 0; b < n; b++ {
				if !emit(a, usr, at) {
					break
				}
				at += time.Duration(rng.ExpFloat64() * float64(70*time.Minute))
			}
		}
	}

	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	for i := range jobs {
		jobs[i].ID = i
		jobs[i].Cores = jobs[i].Nodes * cfg.CoresPerNode
	}
	return &Trace{System: cfg.System, Jobs: jobs}
}

// sessionStartTime picks a session's first submission. Long-runner
// sessions are biased to the evening: the paper reports 71.4% of >6 h jobs
// submitted between 18:00 and 24:00.
func sessionStartTime(rng *rand.Rand, span time.Duration, longRunner bool) time.Duration {
	day := time.Duration(rng.Int63n(int64(span / (24 * time.Hour))))
	var hour float64
	if longRunner && rng.Float64() < 0.74 {
		hour = 18 + rng.Float64()*5.9
	} else {
		hour = math.Mod(9+rng.ExpFloat64()*5, 24)
	}
	return day*24*time.Hour + time.Duration(hour*float64(time.Hour))
}

// lognormalDuration draws around a median with multiplicative spread.
func lognormalDuration(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	f := math.Exp(rng.NormFloat64() * sigma)
	d := time.Duration(float64(median) * f)
	if d < 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// userEstimate draws a user-supplied walltime for a job of the given
// runtime. Calibrated to Fig. 5a: ~85% overestimate (P > 1) with a long
// tail (round walltimes, "just ask for the queue max"), ~15%
// underestimate.
func userEstimate(rng *rand.Rand, runtime time.Duration) time.Duration {
	var f float64
	if rng.Float64() < 0.82 {
		f = 1.1 + rng.ExpFloat64()*2.5 // overestimate, median ~2.8x
	} else {
		f = 0.5 + rng.Float64()*0.48 // underestimate
	}
	est := time.Duration(float64(runtime) * f)
	// Users round up to 15-minute granularity.
	gran := 15 * time.Minute
	if est > gran {
		est = (est/gran + 1) * gran
	}
	if est < time.Minute {
		est = time.Minute
	}
	return est
}
