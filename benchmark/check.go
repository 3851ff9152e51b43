package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"simbench/internal/core"
	"simbench/internal/sched"
)

// checker is the output-correctness gate. Every failure it records
// counts against fail_ratio and fails the run.
type checker struct {
	gold     *golden
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// goldenCell is one cell's recorded outcome.
type goldenCell struct {
	insns  uint64
	digest string
}

// golden holds a workload's recorded cell outcomes, keyed by cell and
// iteration count.
type golden struct {
	cells map[string]goldenCell
	// requireAll makes a cell missing from cells a failure; it holds
	// for the seed the file was recorded from.
	requireAll bool
	// record, when non-nil, collects every checked cell for writing a
	// new golden file instead of checking against cells.
	record map[string]goldenCell
}

// goldenKey names a cell at its iteration count.
func goldenKey(j sched.Job) string { return fmt.Sprintf("%s@%d", j, j.Iters) }

// digest hashes a run's guest-reported results.
func digest(r *core.Result) string {
	h := fnv.New64a()
	var b [4]byte
	for _, w := range r.GuestResults {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// loadGolden reads a workload's embedded golden file; a workload
// without one has an empty golden set.
func loadGolden(workload string) (*golden, error) {
	g := &golden{cells: map[string]goldenCell{}}
	data, err := goldenFiles.ReadFile("testdata/" + workload + ".golden")
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s.golden:%d: want <cell> <insns> <digest>", workload, line)
		}
		n, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s.golden:%d: %v", workload, line, err)
		}
		g.cells[f[0]] = goldenCell{n, f[2]}
	}
	return g, sc.Err()
}

// write saves the recorded cells as a golden file, sorted by cell.
func (g *golden) write(path, workload string, seed int64) error {
	keys := make([]string, 0, len(g.record))
	for k := range g.record {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: retired instructions and guest-result digest per cell, seed %d\n", workload, seed)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d %s\n", k, g.record[k].insns, g.record[k].digest)
	}
	return writeFile(path, []byte(b.String()))
}

// cell checks one cell against the golden file.
func (c *checker) cell(j sched.Job, r *core.Result) {
	key := goldenKey(j)
	got := goldenCell{r.Stats.Instructions, digest(r)}
	if c.gold.record != nil {
		c.gold.record[key] = got
		return
	}
	want, ok := c.gold.cells[key]
	switch {
	case !ok && c.gold.requireAll:
		c.failf("%s: not in the golden file", key)
	case ok && want != got:
		c.failf("%s: retired %d, results %s; golden %d, %s", key, got.insns, got.digest, want.insns, want.digest)
	}
}

// repeat checks that a cell measured again retired exactly what it did
// the first time, with the same engine counters and guest results.
func (c *checker) repeat(j sched.Job, first, again *core.Result) {
	if first.Stats != again.Stats || !slices.Equal(first.GuestResults, again.GuestResults) ||
		first.Exc != again.Exc || first.Console != again.Console {
		c.failf("%s: did not repeat: retired %d then %d", j, first.Stats.Instructions, again.Stats.Instructions)
	}
}

// engineDependent are the benchmarks whose guest result is a property
// of the engine by design: ext.irq-latency reports how many
// instructions retire before an interrupt is taken, which is exactly
// the interrupt-granularity difference between engines.
var engineDependent = map[string]bool{"ext.irq-latency": true}

// agree checks the engines against each other. For one (arch, bench,
// cores, iters), every engine must report the same guest results. At
// one core, engines that took the same number of interrupts must also
// retire the same number of instructions; an engine that checks for
// interrupts only at block boundaries can take one tick fewer and
// retire that tick's handler fewer times. At more cores the retired
// count depends on how long each hart spins, so it is not compared.
func (c *checker) agree(jobs []sched.Job, res func(i int) *core.Result) {
	type guest struct {
		arch, bench string
		cores       int
		iters       int64
	}
	type seen struct {
		job sched.Job
		r   *core.Result
	}
	groups := map[guest][]seen{}
	var order []guest
	for i, j := range jobs {
		r := res(i)
		if r == nil {
			continue
		}
		g := guest{j.Arch.Name(), j.Bench.Name, j.EffectiveCores(), j.Iters}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], seen{j, r})
	}
	for _, g := range order {
		ref := groups[g][0]
		retired := map[uint64]seen{}
		for _, s := range groups[g] {
			if !engineDependent[g.bench] && !slices.Equal(s.r.GuestResults, ref.r.GuestResults) {
				c.failf("%s: guest results %v differ from %s's %v", s.job, s.r.GuestResults, ref.job.Engine.Name, ref.r.GuestResults)
			}
			if g.cores > 1 {
				continue
			}
			irqs := s.r.Stats.IRQsDelivered
			if o, ok := retired[irqs]; ok && o.r.Stats.Instructions != s.r.Stats.Instructions {
				c.failf("%s: retired %d, %s retired %d with as many interrupts", s.job, s.r.Stats.Instructions, o.job.Engine.Name, o.r.Stats.Instructions)
			} else if !ok {
				retired[irqs] = s
			}
		}
	}
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
