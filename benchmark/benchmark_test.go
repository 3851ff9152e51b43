package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tinyConfig runs a workload at a size that takes well under a second
// per pass.
func tinyConfig(t *testing.T, gold *golden) config {
	return config{
		seed:     1,
		count:    2,
		setups:   1,
		shrink:   200,
		trace:    true,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		gold:     gold,
		log:      io.Discard,
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, traced, and
// checks that it passes its own correctness gate and prints the
// summary line's JSON shape with well-formed metric names and units.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig(t, &golden{cells: map[string]goldenCell{}})
			if w.name == "sweep-incremental" {
				cfg.count = offlineEvery // one offline render
			}
			res, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failures=%v", res.correct(), res.Attempted, res.Failures)
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("no trace written: %v", err)
			}
			if u := res.PerLayer["trace.unattributed_share"].Value; u > 0.10 {
				t.Errorf("trace leaves %.1f%% of wall time unattributed", 100*u)
			}
			for _, traced := range []bool{false, true} {
				res.Traced = traced
				checkOutput(t, res, traced)
			}
		})
	}
}

// checkOutput checks the two lines a run prints.
func checkOutput(t *testing.T, res *result, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %d lines, want 2", len(lines))
	}
	var full result
	if err := json.Unmarshal([]byte(lines[0]), &full); err != nil || full.Workload != res.Workload {
		t.Fatalf("full report does not parse back: %v", err)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("summary line keys: %s", lines[1])
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(last["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(ms) != len(want) {
		t.Errorf("summary has %d metrics, want %d", len(ms), len(want))
	}
	for _, d := range want {
		v, ok := ms[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("bad metric name %q", d.name)
		}
		if len(v) != 2 || v["unit"] != d.unit || d.unit == "" {
			t.Errorf("metric %s: %v", d.name, v)
		}
		if _, ok := v["value"].(float64); !ok {
			t.Errorf("metric %s: value %v is not a number", d.name, v["value"])
		}
		if !traced && v["value"].(float64) <= 0 {
			t.Errorf("end-to-end metric %s is %v", d.name, v["value"])
		}
	}
}

// TestPerturbedGoldenFails records a run's golden cells, changes one
// retired count, and expects the next run to fail on exactly that cell.
func TestPerturbedGoldenFails(t *testing.T) {
	t.Parallel()
	smpWorkload, _ := lookupWorkload("smp")
	gold := &golden{cells: map[string]goldenCell{}, record: map[string]goldenCell{}}
	cfg := tinyConfig(t, gold)
	cfg.count, cfg.trace = 1, false
	if _, err := smpWorkload.run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var victim string
	for k, c := range gold.record {
		victim = k
		c.insns++
		gold.cells[k] = c
		break
	}
	for k, c := range gold.record {
		if k != victim {
			gold.cells[k] = c
		}
	}
	gold.record, gold.requireAll = nil, true
	res, err := smpWorkload.run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.Failed != 1 || !strings.Contains(res.Failures[0], victim) {
		t.Fatalf("perturbed %s: failed=%d failures=%v", victim, res.Failed, res.Failures)
	}
}

// TestFoldSelfTime folds synthetic spans that overlap across lanes.
func TestFoldSelfTime(t *testing.T) {
	trace := `{"traceEvents": [
		{"name": "thread_name", "ph": "M", "tid": 8000, "args": {"name": "benchmark"}},
		{"name": "measure", "ph": "X", "ts": 25, "dur": 20, "tid": 0},
		{"name": "cell", "ph": "X", "ts": 20, "dur": 30, "tid": 0},
		{"name": "cell", "ph": "X", "ts": 40, "dur": 30, "tid": 1},
		{"name": "experiment.Run", "ph": "X", "ts": 10, "dur": 80, "tid": 8000},
		{"name": "store.put", "ph": "X", "ts": 85, "dur": 10, "tid": 1},
		{"name": "round", "ph": "X", "ts": 0, "dur": 100, "tid": 8000},
		{"name": "sched.Execute", "ph": "X", "ts": 110, "dur": 40, "tid": 8000, "args": {"engine": "dbt", "engine_ns": "30000"}},
		{"name": "pass", "ph": "X", "ts": 100, "dur": 60, "tid": 8000}
	]}`
	f, err := fold([]byte(trace))
	if err != nil {
		t.Fatal(err)
	}
	// experiment.Run loses the union of the two cells (20..70), not
	// their sum; store.put overlaps its end without nesting in it.
	want := map[string]float64{
		"experiment":  30,
		"sched":       10 + 30,
		"core+engine": 20,
		"store":       10,
		"engine/dbt":  30,
		"core":        10,
	}
	for layer, us := range want {
		if f.layers[layer] != us {
			t.Errorf("%s: self %v µs, want %v", layer, f.layers[layer], us)
		}
	}
	// round: 100 − 80 (experiment.Run) − 5 (store.put past 90); pass:
	// 60 − 40.
	if f.wall != 160 || f.unattributed != 15+20 {
		t.Errorf("wall %v, unattributed %v; want 160, 35", f.wall, f.unattributed)
	}
	if got := f.durs["cell"]; len(got) != 2 {
		t.Errorf("cell durations %v", got)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(sortedCopy(c.xs))
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// describes exactly the workloads and metrics this command produces.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		t.Fatal(err)
	}
	if len(desc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(desc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if desc.Workloads[i].Name != w.name || desc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, defined %q", i, desc.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		listed  []bound
		defined []metricDef
	}{{desc.EndToEnd, endToEnd}, {desc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defined) {
			t.Errorf("%d metrics listed, %d defined", len(c.listed), len(c.defined))
			continue
		}
		for i, d := range c.defined {
			l := c.listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("metric %d: listed %s %s %s, defined %s %s %s", i, l.Name, l.Unit, l.Better, d.name, d.unit, d.better)
			}
		}
	}
	for _, b := range desc.EndToEnd {
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", b.Name, b.Bound)
		}
	}
}

// TestCompareVerdicts compares synthetic result sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	// writeSet writes one run per value, as several runs' stdout
	// appended together; each run's own quartiles are ±10%.
	writeSet := func(name string, values ...float64) string {
		var b strings.Builder
		for _, v := range values {
			line, _ := json.Marshal(result{Workload: "smp", EndToEnd: map[string]summary{
				"sweep_s": {Value: v, Q1: 0.9 * v, Q3: 1.1 * v},
			}})
			b.Write(line)
			b.WriteString("\n{\"correct\": true}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end": [{"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a, b    []float64
		verdict string
	}{
		{[]float64{1.00, 1.01, 1.00, 0.99}, []float64{1.10, 1.11, 1.10, 1.09}, "regressed"},
		{[]float64{1.00, 1.01, 1.00, 0.99}, []float64{1.01, 1.00, 1.02, 1.00}, "within bound"},
		{[]float64{1.00, 1.01, 1.00, 0.99}, []float64{0.90, 0.91, 0.90, 0.89}, "improved"},
		// One run per set falls back to the run's own quartiles, whose
		// 20% spread cannot resolve a 5% bound.
		{[]float64{1.00}, []float64{1.10}, "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareSets(&out, bounds, writeSet("a", c.a...), writeSet("b", c.b...))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.verdict) || regressed != (c.verdict == "regressed") {
			t.Errorf("%v vs %v: want %s, got regressed=%v:\n%s", c.a, c.b, c.verdict, regressed, out.String())
		}
	}
}
