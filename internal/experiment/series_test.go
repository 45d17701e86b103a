package experiment

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFigureSeriesEndAtTheTable: the -csv series are the tables' own runs,
// so each RM's last Fig. 7 sample prints as the CPU time, vmem and rss
// that Fig7 reports for it.
func TestFigureSeriesEndAtTheTable(t *testing.T) {
	p := Params{Fig7Nodes: 128, Fig7Span: 5 * time.Minute, Fig9Nodes: 128, Fig9Span: 5 * time.Minute}
	dir := t.TempDir()
	if err := WriteFigureSeries(dir, p); err != nil {
		t.Fatal(err)
	}
	// lastRow maps each column of fig7_<metric>.csv to its final value.
	lastRow := func(metric string) map[string]float64 {
		b, err := os.ReadFile(filepath.Join(dir, "fig7_"+metric+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) < 2 {
			t.Fatalf("fig7_%s.csv has no samples", metric)
		}
		cols, vals := strings.Split(lines[0], ","), strings.Split(lines[len(lines)-1], ",")
		out := map[string]float64{}
		for i, col := range cols {
			v, err := strconv.ParseFloat(vals[i], 64)
			if err != nil {
				t.Fatal(err)
			}
			out[col] = v
		}
		return out
	}
	cpu, vmem, rss := lastRow("cpu"), lastRow("vmem"), lastRow("rss")

	tab := Fig7(new(Env), p.Fig7Nodes, p.Fig7Span)
	if len(tab.Rows) != 6 {
		t.Fatalf("Fig7 printed %d rows, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		name := strings.ToLower(row[0])
		got := []string{
			fmtDur(time.Duration(cpu[name+"_cpu_s"] * float64(time.Second))),
			fmtBytes(int64(vmem[name+"_vmem_mb"] * (1 << 20))),
			fmtBytes(int64(rss[name+"_rss_mb"] * (1 << 20))),
		}
		want := []string{row[1], row[3], row[4]}
		for i, metric := range []string{"CPU time", "vmem", "rss"} {
			if got[i] != want[i] {
				t.Errorf("%s %s: last sample %s, Fig7 prints %s", row[0], metric, got[i], want[i])
			}
		}
	}
}

// TestWriteCSV pins the CSV layout: a seconds column, then one column per
// series in argument order.
func TestWriteCSV(t *testing.T) {
	a, b := &series{name: "slurm"}, &series{name: "eslurm"}
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * time.Second
		a.add(at, float64(i*10))
		b.add(at, float64(i))
	}
	var sb strings.Builder
	if err := writeCSV(&sb, []*series{a, b}); err != nil {
		t.Fatal(err)
	}
	want := "seconds,slurm,eslurm\n0,0,0\n1,10,1\n2,20,2\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

// TestWriteCSVMismatch: series that were not sampled on one schedule are
// refused, not written misaligned.
func TestWriteCSVMismatch(t *testing.T) {
	a := &series{name: "a"}
	a.add(0, 1)
	var sb strings.Builder
	if err := writeCSV(&sb, []*series{a, {name: "b"}}); err == nil {
		t.Error("length mismatch not reported")
	}
}
