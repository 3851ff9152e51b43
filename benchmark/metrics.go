package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// engineNames are the five evaluation platforms, in the order
// experiment.SchedEngines returns them.
var engineNames = []string{"dbt", "interp", "detailed", "virt", "native"}

// endToEnd are the metrics a user of simbench sees. Every workload
// reports every one of them; BENCHMARK.json fixes their bounds.
var endToEnd = func() []metricDef {
	defs := []metricDef{
		{"sweep_s", "s", lower},
		{"guest_mips", "Minsn/s", higher},
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"mips." + e, "Minsn/s", higher})
	}
	return append(defs,
		metricDef{"setup_s", "s", lower},
		metricDef{"peak_heap_mb", "MiB", lower},
	)
}()

// perLayer are the metrics of single layers, named after the module
// they measure. A layer a workload leaves idle reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, e := range engineNames {
		p := "engine." + e + "."
		defs = append(defs,
			metricDef{p + "run_s", "s", lower},
			metricDef{p + "kernel_s", "s", lower},
			metricDef{p + "tlb_hit_ratio", "ratio", higher},
			metricDef{p + "page_walks", "count", lower},
			metricDef{p + "exceptions", "count", lower},
			metricDef{p + "smc_invalidations", "count", lower},
			metricDef{p + "exclusive_fail_ratio", "ratio", lower},
		)
		if e == "interp" || e == "virt" || e == "native" {
			defs = append(defs, metricDef{p + "pages_decoded", "count", lower})
		}
	}
	return append(defs,
		metricDef{"engine.virt.vm_exits", "count", lower},
		metricDef{"engine.dbt.blocks_translated", "count", lower},
		metricDef{"engine.dbt.translate_ratio", "ratio", lower},
		metricDef{"engine.dbt.chain_ratio", "ratio", higher},
		metricDef{"engine.dbt.lookup_ratio", "ratio", lower},
		metricDef{"engine.dbt.superblock_follows", "count", higher},
		metricDef{"core.setup_ms", "ms", lower},
		metricDef{"core.setup_share", "ratio", lower},
		metricDef{"bench.build_ms", "ms", lower},
		metricDef{"asm.assemble_ms", "ms", lower},
		metricDef{"platform.new_ms", "ms", lower},
		metricDef{"sched.gc_ms", "ms", lower},
		metricDef{"sched.key_ms", "ms", lower},
		metricDef{"sched.warmup_ms", "ms", lower},
		metricDef{"sched.measure_ms", "ms", lower},
		metricDef{"sched.cell_ms", "ms", lower},
		metricDef{"store.open_ms", "ms", lower},
		metricDef{"store.get_ms", "ms", lower},
		metricDef{"store.put_ms", "ms", lower},
		metricDef{"store.close_ms", "ms", lower},
		metricDef{"store.history_ms", "ms", lower},
		metricDef{"store.history_mb", "MiB", lower},
		metricDef{"store.cell_index_ms", "ms", lower},
		metricDef{"store.hit_ratio", "ratio", higher},
		metricDef{"store.disk_hits", "count", higher},
		metricDef{"store.mem_hits", "count", higher},
		metricDef{"stats.noise_ms", "ms", lower},
		metricDef{"experiment.self_ms", "ms", lower},
		metricDef{"experiment.offline_ms", "ms", lower},
		metricDef{"experiment.rerun_p90_ms", "ms", lower},
		metricDef{"runtime.peak_rss_mb", "MiB", lower},
		metricDef{"trace.overhead", "ratio", lower},
		metricDef{"trace.unattributed_share", "ratio", lower},
	)
}()

// summary is one metric as reported: the median of its samples, their
// count and quartiles.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces samples to their median and quartiles. Quartiles
// follow Python's statistics.quantiles(n=4) (the exclusive method), so
// the spreads printed here and the ones a reader recomputes agree.
func summarize(def metricDef, xs []float64) summary {
	s := summary{Unit: def.unit, Better: def.better, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Value = median(xs)
	s.Q1, s.Q3 = quartiles(sortedCopy(xs))
	return s
}

// median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	sorted := sortedCopy(xs)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// sortedCopy returns xs in ascending order, leaving xs as it is.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles of an ascending slice by the exclusive method; a single
// sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(3)
}

// quantile returns the p-quantile (0..1) of an ascending slice by
// nearest rank.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result is everything one workload run measured and checked.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Count     int                `json:"count"`
	Traced    bool               `json:"traced"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Failures  []string           `json:"failures,omitempty"`
}

// metrics collects raw samples by metric name during a run.
type metrics map[string][]float64

func (m metrics) add(name string, xs ...float64) { m[name] = append(m[name], xs...) }

// newResult summarizes the collected samples. Every end-to-end metric
// must have been measured; a per-layer metric the workload never
// touched reports 0.
func newResult(w string, cfg config, m metrics, attempted int, failures []string) (*result, error) {
	r := &result{
		Workload:  w,
		Seed:      cfg.seed,
		Count:     cfg.count,
		Traced:    cfg.trace,
		EndToEnd:  map[string]summary{},
		PerLayer:  map[string]summary{},
		Attempted: attempted,
		Failed:    len(failures),
		FailRatio: ratio(float64(len(failures)), float64(attempted)),
	}
	const maxListed = 20
	r.Failures = failures
	if len(failures) > maxListed {
		r.Failures = append(failures[:maxListed:maxListed], fmt.Sprintf("... and %d more", len(failures)-maxListed))
	}
	for _, d := range endToEnd {
		xs, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w, d.name)
		}
		r.EndToEnd[d.name] = summarize(d, xs)
	}
	for _, d := range perLayer {
		xs := m[d.name]
		if len(xs) == 0 {
			xs = []float64{0}
		}
		r.PerLayer[d.name] = summarize(d, xs)
	}
	return r, nil
}

// correct reports whether every cell ran and every check passed.
func (r *result) correct() bool { return r.Failed == 0 }

// write prints the full report, then the one-line summary for tools:
// its metrics are the end-to-end set, or the per-layer set for a
// traced run.
func (r *result) write(w io.Writer) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, set := endToEnd, r.EndToEnd
	if r.Traced {
		defs, set = perLayer, r.PerLayer
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{set[d.name].Value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, line)
	return err
}
