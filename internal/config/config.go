// Package config parses ESlurm configuration files. The paper's artifact
// installs ESlurm exactly like Slurm — "its installation steps are
// basically the same as Slurm, only a few configuration items need to be
// added to the configuration file" — so the format is slurm.conf's
// key=value lines (with Slurm's one-line NodeName/PartitionName records)
// plus the ESlurm additions: SatelliteNodes, TreeWidth, ReallocLimit and
// the runtime-estimation parameters of Section V-A.
//
// Determinism: parsing is pure — no simulation state, no RNG, no clocks —
// so this package sits outside the engine's same-seed ⇒ same-trace
// contract and cannot perturb it.
package config

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/hostlist"
)

// NodeDef is one NodeName record.
type NodeDef struct {
	// Names is the expanded host list.
	Names []string
	CPUs  int
	// RealMemoryMB follows slurm.conf units.
	RealMemoryMB int
}

// PartitionDef is one PartitionName record.
type PartitionDef struct {
	Name    string
	Nodes   []string
	MaxTime time.Duration
	Default bool
}

// Config is a parsed configuration.
type Config struct {
	ClusterName    string
	ControlMachine string
	// SatelliteNodes is the ESlurm addition: hosts running the satellite
	// relay daemon (m in Eq. 1).
	SatelliteNodes []string
	Nodes          []NodeDef
	Partitions     []PartitionDef

	// ESlurm communication parameters.
	TreeWidth         int
	ReallocLimit      int
	HeartbeatInterval time.Duration

	// Runtime-estimation parameters (Section V-A's "configuration
	// interface": interest window and refresh period; K and alpha are
	// admin-tunable too).
	EstimatorWindow  int
	EstimatorRefresh time.Duration
	EstimatorK       int
	EstimatorAlpha   float64

	// Reconciler parameters (declarative cluster spec): the desired
	// satellite count, replica bounds, administratively cordoned satellite
	// hosts, and the reconcile-loop cadence / graceful-drain deadline.
	SatelliteTarget    int
	SatelliteMin       int
	SatelliteMax       int
	CordonedSatellites []string
	ReconcileInterval  time.Duration
	DrainDeadline      time.Duration

	// Extra holds unrecognized keys verbatim (forward compatibility, as
	// slurm.conf tolerates plugin-specific options).
	Extra map[string]string
}

// ComputeCount returns the total compute-node count across NodeName
// records.
func (c *Config) ComputeCount() int {
	n := 0
	for _, d := range c.Nodes {
		n += len(d.Names)
	}
	return n
}

// CoreConfig maps the parsed values onto the master-daemon configuration,
// with core defaults for everything unset.
func (c *Config) CoreConfig() core.Config {
	cfg := core.DefaultConfig()
	if c.TreeWidth > 0 {
		cfg.TreeWidth = c.TreeWidth
	}
	if c.ReallocLimit > 0 {
		cfg.ReallocLimit = c.ReallocLimit
	}
	if c.HeartbeatInterval > 0 {
		cfg.HeartbeatInterval = c.HeartbeatInterval
	}
	return cfg
}

// FrameworkConfig maps the estimator keys onto the framework
// configuration.
func (c *Config) FrameworkConfig() estimate.FrameworkConfig {
	return estimate.FrameworkConfig{
		InterestWindow: c.EstimatorWindow,
		RefreshEvery:   c.EstimatorRefresh,
		K:              c.EstimatorK,
		Alpha:          c.EstimatorAlpha,
	}
}

// Parse reads a configuration file.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{Extra: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("config line %d: %v", lineNo, err)
		}
		key := strings.ToLower(fields[0].key)
		switch key {
		case "nodename":
			def, err := parseNodeDef(fields)
			if err != nil {
				return nil, fmt.Errorf("config line %d: %v", lineNo, err)
			}
			cfg.Nodes = append(cfg.Nodes, def)
		case "partitionname":
			def, err := parsePartitionDef(fields)
			if err != nil {
				return nil, fmt.Errorf("config line %d: %v", lineNo, err)
			}
			cfg.Partitions = append(cfg.Partitions, def)
		default:
			if len(fields) != 1 {
				return nil, fmt.Errorf("config line %d: unexpected extra fields after %s", lineNo, fields[0].key)
			}
			if err := cfg.setScalar(key, fields[0].value); err != nil {
				return nil, fmt.Errorf("config line %d: %v", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

type field struct{ key, value string }

// splitFields breaks "A=1 B=x[1-3] C=y" into key/value pairs; values may
// contain brackets but not spaces (as in slurm.conf).
func splitFields(line string) ([]field, error) {
	var out []field
	for _, tok := range strings.Fields(line) {
		i := strings.IndexByte(tok, '=')
		if i <= 0 {
			return nil, fmt.Errorf("malformed token %q (want Key=Value)", tok)
		}
		out = append(out, field{key: tok[:i], value: tok[i+1:]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty line")
	}
	return out, nil
}

func (c *Config) setScalar(key, value string) error {
	switch key {
	case "clustername":
		c.ClusterName = value
	case "controlmachine", "slurmctldhost":
		c.ControlMachine = value
	case "satellitenodes":
		hosts, err := hostlist.Expand(value)
		if err != nil {
			return err
		}
		c.SatelliteNodes = hosts
	case "treewidth":
		return parseInt(value, &c.TreeWidth)
	case "realloclimit":
		return parseInt(value, &c.ReallocLimit)
	case "heartbeatinterval":
		return parseDuration(value, &c.HeartbeatInterval)
	case "satellitetarget":
		return parseInt(value, &c.SatelliteTarget)
	case "satellitemin":
		return parseInt(value, &c.SatelliteMin)
	case "satellitemax":
		return parseInt(value, &c.SatelliteMax)
	case "cordonedsatellites":
		hosts, err := hostlist.Expand(value)
		if err != nil {
			return err
		}
		c.CordonedSatellites = hosts
	case "reconcileinterval":
		return parseDuration(value, &c.ReconcileInterval)
	case "draindeadline":
		return parseDuration(value, &c.DrainDeadline)
	case "estimatorwindow":
		return parseInt(value, &c.EstimatorWindow)
	case "estimatorrefresh":
		return parseDuration(value, &c.EstimatorRefresh)
	case "estimatork":
		return parseInt(value, &c.EstimatorK)
	case "estimatoralpha":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("bad float %q", value)
		}
		c.EstimatorAlpha = f
	default:
		c.Extra[key] = value
	}
	return nil
}

func parseInt(v string, dst *int) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("bad integer %q", v)
	}
	*dst = n
	return nil
}

// parseDuration accepts Go durations ("15m") and Slurm-style bare minutes
// ("15"). Negative durations, and bare minutes past time.Duration's
// range, are refused.
func parseDuration(v string, dst *time.Duration) error {
	if n, err := strconv.Atoi(v); err == nil {
		if n < 0 || int64(n) > math.MaxInt64/int64(time.Minute) {
			return fmt.Errorf("bad duration %q", v)
		}
		*dst = time.Duration(n) * time.Minute
		return nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return fmt.Errorf("bad duration %q", v)
	}
	*dst = d
	return nil
}

func parseNodeDef(fields []field) (NodeDef, error) {
	def := NodeDef{}
	for _, f := range fields {
		switch strings.ToLower(f.key) {
		case "nodename":
			hosts, err := hostlist.Expand(f.value)
			if err != nil {
				return def, err
			}
			def.Names = hosts
		case "cpus":
			if err := parseInt(f.value, &def.CPUs); err != nil {
				return def, err
			}
		case "realmemory":
			if err := parseInt(f.value, &def.RealMemoryMB); err != nil {
				return def, err
			}
		case "state":
			// Accepted and ignored (the simulator owns node state).
		default:
			return def, fmt.Errorf("unknown NodeName attribute %q", f.key)
		}
	}
	if len(def.Names) == 0 {
		return def, fmt.Errorf("NodeName record without names")
	}
	return def, nil
}

func parsePartitionDef(fields []field) (PartitionDef, error) {
	def := PartitionDef{}
	for _, f := range fields {
		switch strings.ToLower(f.key) {
		case "partitionname":
			def.Name = f.value
		case "nodes":
			hosts, err := hostlist.Expand(f.value)
			if err != nil {
				return def, err
			}
			def.Nodes = hosts
		case "maxtime":
			if strings.EqualFold(f.value, "INFINITE") {
				def.MaxTime = 0
				continue
			}
			if err := parseDuration(f.value, &def.MaxTime); err != nil {
				return def, err
			}
		case "default":
			def.Default = strings.EqualFold(f.value, "YES")
		default:
			return def, fmt.Errorf("unknown PartitionName attribute %q", f.key)
		}
	}
	if def.Name == "" {
		return def, fmt.Errorf("PartitionName record without a name")
	}
	return def, nil
}
