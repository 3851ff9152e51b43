package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"simbench/internal/arch"
	"simbench/internal/bench"
	"simbench/internal/core"
	"simbench/internal/experiment"
	"simbench/internal/obs"
	"simbench/internal/report"
	"simbench/internal/sched"
	"simbench/internal/store"
)

// sweepBase is the spec every round re-runs against the store: the
// whole suite at a tiny scale, noise-annotated. After set-up every one
// of its cells is a hit.
var sweepBase = experiment.Spec{
	Name:     "benchmark-base",
	Renderer: experiment.RenderMatrix,
	Benches:  []string{"suite:simbench", "suite:ext", "suite:spec"},
	Scale:    2_000_000,
	// SPEC-like workloads have small paper counts; this keeps them at
	// their floor too.
	SpecScale: 20_000,
	Repeats:   1,
	Noise:     true,
}

const (
	// sweepWorkers is the scheduler's worker count, like simbench -jobs 2.
	sweepWorkers = 2
	// historyRuns jittered copies of the base measurement are appended
	// in set-up, so every base cell has enough fresh samples for a
	// noise band and the noise path is live in every round.
	historyRuns   = 30
	historyJitter = 0.05
	// churnBenches micro-benchmarks are measured fresh in every round,
	// on every engine and arch: churnCells misses.
	churnBenches = 6
	churnCells   = churnBenches * 5 * 2
	// churnIters is the first round's churn iteration count; round r
	// runs churnIters+r, so its cells are never in the store.
	churnIters = 1000
	// offlineEvery rounds, the base spec is also rendered offline.
	offlineEvery = 10
)

// churnSpec is round r's spec of fresh cells. Its huge scale puts every
// benchmark at the MinIters floor.
func churnSpec(r int, benches []string) experiment.Spec {
	return experiment.Spec{
		Name:     "benchmark-churn",
		Renderer: experiment.RenderMatrix,
		Benches:  benches,
		Scale:    1 << 40,
		MinIters: int64(churnIters + r),
		Repeats:  1,
	}
}

// planChurn picks each round's churn benchmarks: six drawn by the seed
// from the micro suite without the two code-generation benchmarks.
// Those translate large blocks and cost four to ten times any other
// benchmark at churnIters, so a round holding one would be an engine
// workload, and rounds with and without one would split the round
// times in two.
func planChurn(rng *rand.Rand, rounds int) [][]string {
	var pool []string
	for _, b := range bench.Suite() {
		if b.Category != core.CatCodeGen {
			pool = append(pool, b.Name)
		}
	}
	plan := make([][]string, rounds)
	for r := range plan {
		for _, i := range rng.Perm(len(pool))[:churnBenches] {
			plan[r] = append(plan[r], pool[i])
		}
	}
	return plan
}

// specJobs expands a spec the way experiment.Run does, so that its
// jobs carry the same content addresses.
func specJobs(sp experiment.Spec) ([]sched.Job, error) {
	benches, err := experiment.ExpandBenches(sp.Benches)
	if err != nil {
		return nil, err
	}
	policy := experiment.Options{Scale: sp.Scale, SpecScale: sp.SpecScale, MinIters: sp.MinIters}
	m := sched.Matrix{
		Arches:  arch.All(),
		Benches: benches,
		Engines: experiment.SchedEngines(),
		Iters:   policy.Iters,
		Repeats: sp.Repeats,
	}
	return m.Jobs(), nil
}

// runSweep runs sweep-incremental: set-up measures the base spec cold
// into a fresh store and appends jittered history; then every round
// opens the store afresh, the way a new simbench process would, and
// re-runs the base spec (all hits) and a churn spec (all misses).
func runSweep(ctx context.Context, cfg config) (*result, error) {
	m := metrics{}
	chk := &checker{gold: cfg.gold}
	baseJobs, err := specJobs(sweepBase)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "simbench-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The seed picks the churn plan, one round more than timed for the
	// traced round, and the history jitter, which every set-up repeats.
	rng := rand.New(rand.NewSource(cfg.seed))
	plan := planChurn(rng, cfg.count+1)
	historySeed := rng.Int63()

	attempted := 0
	var dir string
	var base []sched.Result
	for i := 0; i < cfg.setups; i++ {
		dir = filepath.Join(tmp, fmt.Sprintf("store%d", i))
		t0 := time.Now()
		results, err := sweepSetup(ctx, dir, baseJobs, rand.New(rand.NewSource(historySeed)))
		if err != nil {
			return nil, err
		}
		m.add("setup_s", time.Since(t0).Seconds())
		attempted += len(baseJobs)
		if base == nil {
			base = results
			continue
		}
		for k, r := range results {
			chk.repeat(r.Job, base[k].Run, r.Run)
		}
	}
	for _, r := range base {
		chk.cell(r.Job, r.Run)
	}
	fmt.Fprintf(cfg.log, "sweep-incremental: %d base cells, %d rounds, seed %d\n", len(baseJobs), cfg.count, cfg.seed)

	var walls, offline []float64
	var warm []byte
	var last store.TierStats
	var heap heapPeak
	for r := 0; r < cfg.count; r++ {
		out, err := sweepRound(ctx, dir, churnSpec(r, plan[r]), nil)
		if err != nil {
			return nil, err
		}
		heap.sample()
		attempted += len(baseJobs) + churnCells
		walls = append(walls, out.wall.Seconds())
		last = out.tiers
		if warm == nil {
			warm = out.base
		}
		checkRound(chk, r, out, warm, len(baseJobs))
		if (r+1)%offlineEvery == 0 {
			rendered, wall, err := renderOffline(ctx, dir)
			if err != nil {
				chk.failf("round %d: offline render: %v", r, err)
			} else if !bytes.Equal(rendered, out.base) {
				chk.failf("round %d: offline render differs from the warm render", r)
			}
			offline = append(offline, ms(wall))
		}
		if r%10 == 0 {
			fmt.Fprintf(cfg.log, "sweep-incremental: round %d: %.3fs\n", r, out.wall.Seconds())
		}
	}
	m.add("sweep_s", walls...)
	m.add("experiment.offline_ms", offline...)
	m.add("experiment.rerun_p90_ms", 1e3*quantile(sortedCopy(walls), 0.9))
	m.add("store.hit_ratio", ratio(float64(last.Hits()), float64(last.Hits()+last.Misses)))
	m.add("store.disk_hits", float64(last.Disk))
	m.add("store.mem_hits", float64(last.Mem))
	// Read before the traced round and the checks below, whose work is
	// the benchmark's, not the workload's.
	m.add("peak_heap_mb", heap.mb())
	m.add("runtime.peak_rss_mb", peakRSS())

	rounds := cfg.count
	var traced roundOut
	if cfg.trace {
		tr := obs.NewTracer()
		tr.NameThread(benchLane, "benchmark")
		traced, err = sweepRound(ctx, dir, churnSpec(rounds, plan[rounds]), tr)
		if err != nil {
			return nil, err
		}
		attempted += len(baseJobs) + churnCells
		checkRound(chk, rounds, traced, warm, len(baseJobs))
		recent := walls[max(0, len(walls)-5):]
		m.add("trace.overhead", traced.wall.Seconds()/median(recent)-1)
		if err := foldTrace(tr, m, cfg); err != nil {
			return nil, err
		}
		rounds++
	}

	// The churn cells, read back from the store: their counters, their
	// engine time, and whether the engines agree on them.
	var churn []sched.Job
	for r := 0; r < rounds; r++ {
		jobs, err := specJobs(churnSpec(r, plan[r]))
		if err != nil {
			return nil, err
		}
		churn = append(churn, jobs...)
	}
	st, err := store.OpenTiered(dir, "")
	if err != nil {
		return nil, err
	}
	defer st.Close()
	fresh, missing, err := st.Coverage(ctx, churn)
	if err != nil {
		return nil, err
	}
	for _, miss := range missing {
		chk.failf("churn cell %s", miss)
	}
	untraced := cfg.count * churnCells
	churnMetrics(m, fresh[:untraced])
	chk.agree(churn, func(i int) *core.Result { return fresh[i].Run })
	chk.agree(baseJobs, func(i int) *core.Result { return base[i].Run })

	if cfg.trace {
		if err := probeStore(st, base, fresh[untraced:], m); err != nil {
			return nil, err
		}
		if err := probeSetup(churn[untraced:], m); err != nil {
			return nil, err
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "history.jsonl")); err == nil {
		m.add("store.history_mb", float64(fi.Size())/(1<<20))
	}
	return newResult("sweep-incremental", cfg, m, attempted, chk.failures)
}

// sweepSetup measures the base cells cold into a fresh store at dir —
// each result is Put by the scheduler — records the run in history,
// and appends historyRuns copies with each kernel time jittered by up
// to ±historyJitter. The copies are fresh measurements as far as the
// noise model can tell, so every base cell gets a noise band.
func sweepSetup(ctx context.Context, dir string, jobs []sched.Job, rng *rand.Rand) ([]sched.Result, error) {
	st, err := store.OpenTiered(dir, "")
	if err != nil {
		return nil, err
	}
	s := sched.Scheduler{Workers: sweepWorkers, Warmup: true, Store: st}
	results := s.Run(ctx, jobs)
	if err := sched.Errors(results); err != nil {
		return nil, err
	}
	label := sweepBase.Label()
	if err := st.AppendHistory(label, results); err != nil {
		return nil, err
	}
	for k := 0; k < historyRuns; k++ {
		jittered := make([]sched.Result, len(results))
		for i, r := range results {
			run := *r.Run
			run.Kernel = time.Duration(float64(run.Kernel) * (1 + (2*rng.Float64()-1)*historyJitter))
			r.Run, r.Kernel = &run, run.Kernel
			jittered[i] = r
		}
		if err := st.AppendHistory(label, jittered); err != nil {
			return nil, err
		}
	}
	return results, st.Close()
}

// roundOut is what one round produced.
type roundOut struct {
	wall  time.Duration
	base  []byte // the base spec's rendered tables
	tiers store.TierStats
	err   error
}

// sweepRound runs one round: open the store, run the base spec, run
// the churn spec, close the store. A tracer records the round and, by
// riding the context into the scheduler, the scheduler's own spans.
func sweepRound(ctx context.Context, dir string, churn experiment.Spec, tr *obs.Tracer) (roundOut, error) {
	if tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}
	root := tr.Begin(benchLane, "round", "benchmark")
	t0 := time.Now()
	sp := tr.Begin(benchLane, "store.OpenTiered", "store")
	st, err := store.OpenTiered(dir, "")
	sp.End()
	if err != nil {
		return roundOut{}, err
	}
	var base, fresh bytes.Buffer
	run := func(spec experiment.Spec, out *bytes.Buffer) error {
		sp := tr.Begin(benchLane, "experiment.Run", "experiment").Arg("spec", spec.Name)
		defer sp.End()
		return experiment.Run(spec, experiment.Options{Out: out, Store: st, Jobs: sweepWorkers, Context: ctx})
	}
	errBase := run(sweepBase, &base)
	errChurn := run(churn, &fresh)
	sp = tr.Begin(benchLane, "store.Close", "store")
	errClose := st.Close()
	sp.End()
	wall := time.Since(t0)
	root.End()
	if err := ctx.Err(); err != nil {
		return roundOut{}, err
	}
	return roundOut{wall, base.Bytes(), st.TierStats(), errors.Join(errBase, errChurn, errClose)}, nil
}

// checkRound checks one round: no errors, every base cell a hit, every
// churn cell a miss, and the base tables byte-identical to the first
// round's.
func checkRound(chk *checker, r int, out roundOut, warm []byte, hits int) {
	if out.err != nil {
		chk.failf("round %d: %v", r, out.err)
	}
	if out.tiers.Hits() != uint64(hits) || out.tiers.Misses != churnCells {
		chk.failf("round %d: %d hits and %d misses, want %d and %d", r, out.tiers.Hits(), out.tiers.Misses, hits, churnCells)
	}
	if !bytes.Equal(out.base, warm) {
		chk.failf("round %d: base tables differ from the first round's", r)
	}
}

// renderOffline renders the base spec from a freshly opened store.
func renderOffline(ctx context.Context, dir string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	st, err := store.OpenTiered(dir, "")
	if err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	err = experiment.RenderOffline(sweepBase, experiment.Options{Out: &out, Store: st, Context: ctx})
	err = errors.Join(err, st.Close())
	return out.Bytes(), time.Since(t0), err
}

// churnMetrics reports the engine rates and counters of the freshly
// measured cells. The sweep runs its cells inside experiment.Run, whose
// wall time per cell it cannot see, so guest_mips here divides by the
// cells' kernel time, like mips.<engine>. A benchmark is churned in
// many rounds at iteration counts a few percent apart; as on the
// engine workloads, each (arch, bench, engine) contributes the median
// of its retired counts and of its times. Every churned run is a
// distinct run, so all of their counters add up.
func churnMetrics(m metrics, fresh []sched.Result) {
	cells := map[string]*cellSamples{}
	var order []*cellSamples
	for _, r := range fresh {
		if r.Run == nil {
			continue
		}
		id := r.Job.String()
		c, ok := cells[id]
		if !ok {
			c = &cellSamples{engine: r.Job.Engine.Name}
			cells[id] = c
			order = append(order, c)
		}
		c.add(r.Run, r.Run.Kernel)
		c.stats.Add(r.Run.Stats)
	}
	cellMetrics(m, order)
}

// probeStore times, one call each after the last round, the store
// reads a round makes inside experiment.Run: the history parse, the
// cell index, and the noise model with one band lookup per base cell.
// It also splits the traced round's measure spans (sched.measure_ms,
// from foldTrace) into the churn cells' engine time and core set-up.
func probeStore(st *store.Store, base, tracedChurn []sched.Result, m metrics) error {
	t0 := time.Now()
	runs, err := st.History()
	if err != nil {
		return err
	}
	m.add("store.history_ms", ms(time.Since(t0)))
	t0 = time.Now()
	if _, err := st.CellIndex(); err != nil {
		return err
	}
	m.add("store.cell_index_ms", ms(time.Since(t0)))
	t0 = time.Now()
	noise := store.NoiseLookup(runs, store.StatGate{})
	for _, r := range base {
		noise(report.NewRecord(r))
	}
	m.add("stats.noise_ms", ms(time.Since(t0)))

	var engineTime time.Duration
	for _, r := range tracedChurn {
		if r.Run != nil {
			engineTime += r.Run.Total
		}
	}
	measure := m["sched.measure_ms"]
	if len(measure) > 0 && len(tracedChurn) > 0 {
		m.add("core.setup_ms", (measure[0]-ms(engineTime))/float64(len(tracedChurn)))
		m.add("core.setup_share", ratio(measure[0]-ms(engineTime), measure[0]))
	}
	return nil
}
