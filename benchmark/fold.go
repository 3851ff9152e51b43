package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"simbench/internal/obs"
)

// benchLane is the trace lane of the benchmark's own spans, clear of
// the scheduler's worker lanes and its fixed lanes.
const benchLane = 8000

// rootSpans are the benchmark spans that stand for a whole timed pass
// or round. Their self time is the wall time no layer accounts for.
var rootSpans = map[string]bool{"pass": true, "round": true}

// layerOf maps a span name to the module it measures. Spans the
// benchmark opens around its calls carry the called function's name;
// the rest are the scheduler's and the store's own spans.
var layerOf = map[string]string{
	"sched.gc":                 "sched",
	"sched.Execute":            "core",
	"key":                      "sched",
	"warmup":                   "sched",
	"cell":                     "sched",
	"measure":                  "core+engine",
	"store.get":                "store",
	"store.put":                "store",
	"store.OpenTiered":         "store",
	"store.Close":              "store",
	"experiment.Run":           "experiment",
	"experiment.RenderOffline": "experiment",
}

// span is one complete event of a Chrome trace, in microseconds.
type span struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// folded is a trace reduced to self time, in microseconds.
type folded struct {
	byName map[string]float64
	layers map[string]float64
	// durs holds every span's duration, by name.
	durs map[string][]float64
	// wall is the summed duration of the root spans, unattributed their
	// summed self time.
	wall, unattributed float64
}

// fold reduces a Chrome trace, as obs.Tracer.WriteJSON writes it, to
// self time per span name and per layer. A span's self time is its
// duration minus the union of the intervals of the spans nested in it,
// on any lane: a worker's cells inside experiment.Run count as the
// scheduler's, not as experiment's. A sched.Execute span hands the
// part of its self time that the engine reported (its engine_ns arg)
// to engine/<name>.
func fold(trace []byte) (*folded, error) {
	var file struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &file); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var spans []span
	for _, s := range file.TraceEvents {
		if s.Ph == "X" {
			spans = append(spans, s)
		}
	}
	// Parents sort before their children: earlier start first, and of
	// two spans starting together the longer one.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].Dur > spans[j].Dur
	})
	f := &folded{byName: map[string]float64{}, layers: map[string]float64{}, durs: map[string][]float64{}}
	for i, p := range spans {
		end := p.Ts + p.Dur
		covered, from, to := int64(0), int64(-1), int64(-1)
		for _, c := range spans[i+1:] {
			if c.Ts >= end {
				break
			}
			if c.Ts+c.Dur > end {
				continue // overlaps p without nesting in it
			}
			if c.Ts > to {
				covered += to - from
				from, to = c.Ts, c.Ts+c.Dur
			} else if c.Ts+c.Dur > to {
				to = c.Ts + c.Dur
			}
		}
		covered += to - from
		self := float64(p.Dur - covered)
		f.byName[p.Name] += self
		f.durs[p.Name] = append(f.durs[p.Name], float64(p.Dur))
		switch {
		case rootSpans[p.Name]:
			f.wall += float64(p.Dur)
			f.unattributed += self
		case p.Name == "sched.Execute" && p.Args["engine"] != "":
			ns, _ := strconv.ParseFloat(p.Args["engine_ns"], 64)
			eng := min(self, ns/1e3)
			f.layers["engine/"+p.Args["engine"]] += eng
			f.layers["core"] += self - eng
		default:
			layer, ok := layerOf[p.Name]
			if !ok {
				layer = "other"
			}
			f.layers[layer] += self
		}
	}
	return f, nil
}

// spanMetrics are the per-layer metrics read off a traced round's
// spans: the summed self time of the named spans, or, for sched.cell_ms,
// the median span duration.
var spanMetrics = []struct{ span, metric string }{
	{"store.OpenTiered", "store.open_ms"},
	{"store.get", "store.get_ms"},
	{"store.put", "store.put_ms"},
	{"store.Close", "store.close_ms"},
	{"key", "sched.key_ms"},
	{"warmup", "sched.warmup_ms"},
	{"measure", "sched.measure_ms"},
	{"cell", "sched.cell_ms"},
	{"experiment.Run", "experiment.self_ms"},
}

// foldTrace writes the tracer's Chrome trace to cfg.traceOut, folds it,
// prints the per-layer table to the log, and records the span metrics
// and the share of wall time no layer accounts for.
func foldTrace(tr *obs.Tracer, m metrics, cfg config) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err
	}
	if err := writeFile(cfg.traceOut, buf.Bytes()); err != nil {
		return err
	}
	f, err := fold(buf.Bytes())
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "trace written to %s\n", cfg.traceOut)
	f.fprint(cfg.log)
	m.add("trace.unattributed_share", ratio(f.unattributed, f.wall))
	for _, sm := range spanMetrics {
		if _, ok := f.durs[sm.span]; !ok {
			continue
		}
		if sm.metric == "sched.cell_ms" {
			m.add(sm.metric, median(f.durs[sm.span])/1e3)
		} else {
			m.add(sm.metric, f.byName[sm.span]/1e3)
		}
	}
	return nil
}

// fprint writes the per-layer table: self time and its share of the
// traced wall time, largest first.
func (f *folded) fprint(w io.Writer) {
	names := make([]string, 0, len(f.layers))
	for n := range f.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return f.layers[names[i]] > f.layers[names[j]] })
	fmt.Fprintf(w, "%-16s %12s %8s\n", "layer", "self ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "%-16s %12.3f %7.1f%%\n", n, f.layers[n]/1e3, 100*ratio(f.layers[n], f.wall))
	}
	fmt.Fprintf(w, "%-16s %12.3f %7.1f%%\n", "(unattributed)", f.unattributed/1e3, 100*ratio(f.unattributed, f.wall))
	fmt.Fprintf(w, "%-16s %12.3f\n", "traced wall", f.wall/1e3)
}
