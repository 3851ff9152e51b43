package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// bound is one end-to-end metric as BENCHMARK.json describes it.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end metrics and their bounds.
func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var desc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return desc.EndToEnd, nil
}

// loadSet reads a result set: any file of benchmark output, such as
// the stdout of several runs appended together. Only the full report
// lines count; summary lines and anything else are skipped.
func loadSet(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.EndToEnd == nil {
			continue
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// spread summarizes one metric across a set's runs: the median of the
// per-run values and their quartiles. A set with a single run falls
// back to that run's own quartiles over its passes or rounds.
func spread(runs []result, metric string) (med, q1, q3 float64, ok bool) {
	var xs []float64
	for _, r := range runs {
		if s, found := r.EndToEnd[metric]; found {
			xs = append(xs, s.Value)
		}
	}
	switch len(xs) {
	case 0:
		return 0, 0, 0, false
	case 1:
		s := runs[0].EndToEnd[metric]
		return s.Value, s.Q1, s.Q3, true
	}
	sorted := sortedCopy(xs)
	q1, q3 = quartiles(sorted)
	return median(sorted), q1, q3, true
}

// verdict judges set B against set A for one metric: "unresolved" when
// either set's quartile spread exceeds the bound, otherwise whether B's
// median is worse or better than A's by more than the bound.
func verdict(b bound, medA, spreadA, medB, spreadB float64) string {
	worse := ratio(medB-medA, medA)
	if b.Better == higher {
		worse = -worse
	}
	switch {
	case spreadA > b.Bound || spreadB > b.Bound:
		return "unresolved"
	case worse > b.Bound:
		return "regressed"
	case -worse > b.Bound:
		return "improved"
	}
	return "within bound"
}

// compareSets prints, for every workload and end-to-end metric, each
// set's median, quartiles and spread (quartile distance over median)
// and a verdict against the metric's bound. It reports whether any
// metric regressed.
func compareSets(w io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return false, err
	}
	setA, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range setA {
		if _, ok := setB[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload appears in both %s and %s", pathA, pathB)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tspread\tB median [q1, q3]\tspread\tchange\tbound\tverdict")
	regressed := false
	for _, name := range names {
		for _, b := range bounds {
			medA, a1, a3, okA := spread(setA[name], b.Name)
			medB, b1, b3, okB := spread(setB[name], b.Name)
			if !okA || !okB {
				continue
			}
			sa, sb := ratio(a3-a1, medA), ratio(b3-b1, medB)
			v := verdict(b, medA, sa, medB, sb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.1f%%\t%.4g [%.4g, %.4g]\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				name, b.Name, medA, a1, a3, b.Unit, 100*sa, medB, b1, b3, 100*sb, 100*ratio(medB-medA, medA), 100*b.Bound, v)
		}
	}
	return regressed, tw.Flush()
}
