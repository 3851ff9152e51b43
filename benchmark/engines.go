package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"simbench/internal/arch"
	"simbench/internal/asm"
	"simbench/internal/bench"
	"simbench/internal/core"
	"simbench/internal/engine"
	"simbench/internal/experiment"
	"simbench/internal/obs"
	"simbench/internal/platform"
	"simbench/internal/sched"
)

// engineSpec describes an engine workload's cells: benchmarks × the
// five engines × core counts × both guest architectures.
type engineSpec struct {
	benches []string
	cores   []int
	// scale and specScale divide the paper iteration counts of the
	// micro-benchmarks and of the SPEC-like workloads.
	scale, specScale int64
}

// jitter is the largest relative change the seed makes to a cell's
// iteration count.
const jitter = 0.10

// cells expands the workload into jobs, in seeded order. The seed
// draws one jitter j per benchmark and applies it as ×(1+j) on arm and
// ×(1−j) on x86: every (arch, bench) gets its own count, all engines of
// it share that count, and the total work of a pass hardly moves with
// the seed, so sweep_s stays comparable between seeds. The seed also
// shuffles the (arch, bench, cores) groups; within a group the engines
// keep their order. A cell's set-up cost depends on the cell before
// it — after a long cell the runtime has returned more freed memory to
// the OS, which the next platform must fault back in — so a fully
// shuffled order moved sweep_s by up to 8% between seeds.
func (s engineSpec) cells(seed, shrink int64) ([]sched.Job, error) {
	benches, err := experiment.ExpandBenches(s.benches)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	policy := experiment.Options{Scale: s.scale * shrink, SpecScale: s.specScale * shrink}
	engines := experiment.SchedEngines()
	js := make([]float64, len(benches))
	for i := range js {
		js[i] = (2*rng.Float64() - 1) * jitter
	}
	var groups [][]sched.Job
	for ai, sup := range arch.All() {
		for bi, b := range benches {
			f := 1 + js[bi]
			if ai%2 == 1 {
				f = 1 - js[bi]
			}
			iters := max(1, int64(math.Round(float64(policy.Iters(b))*f)))
			for _, c := range s.cores {
				var g []sched.Job
				for _, e := range engines {
					g = append(g, sched.Job{Bench: b, Engine: e, Arch: sup, Iters: iters, Repeats: 1, Cores: c})
				}
				groups = append(groups, g)
			}
		}
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var jobs []sched.Job
	for _, g := range groups {
		jobs = append(jobs, g...)
	}
	return jobs, nil
}

// warmupIters sizes the fixed warm-up cell.
const warmupIters = 20000

// warmup runs one fixed small cell per engine and architecture, so
// process warm-up — heap growth, lazily built tables, cold code in each
// engine — lands in set-up rather than in the first timed cell. It is
// the same cell for every seed, so its cost does not depend on the
// seed.
func warmup(ctx context.Context) error {
	b := bench.HotMemory()
	for _, sup := range arch.All() {
		for _, e := range experiment.SchedEngines() {
			if r := sched.Execute(ctx, sched.Job{Bench: b, Engine: e, Arch: sup, Iters: warmupIters, Repeats: 1}); r.Err != nil {
				return fmt.Errorf("warmup: %w", r.Err)
			}
		}
	}
	return nil
}

// cellRun is one cell's outcome in one pass.
type cellRun struct {
	run      *core.Result // nil when the cell failed
	wall, gc time.Duration
}

// runEngines runs an engine workload: set-up, then cfg.count timed
// passes over every cell on one worker — `simbench -jobs 1` on a cold
// store — then, when tracing, one traced pass.
func runEngines(ctx context.Context, name string, spec engineSpec, cfg config) (*result, error) {
	m := metrics{}
	chk := &checker{gold: cfg.gold}
	var jobs []sched.Job
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		if jobs, err = spec.cells(cfg.seed, cfg.shrink); err != nil {
			return nil, err
		}
		tw := time.Now()
		if err := warmup(ctx); err != nil {
			return nil, err
		}
		m.add("sched.warmup_ms", ms(time.Since(tw)))
		runtime.GC()
		m.add("setup_s", time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "%s: %d cells, %d passes, seed %d\n", name, len(jobs), cfg.count, cfg.seed)

	var heap heapPeak
	var passes [][]cellRun
	var first []*core.Result
	for p := 0; p < cfg.count; p++ {
		runs, wall, err := enginePass(ctx, jobs, first, chk, &heap, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = make([]*core.Result, len(jobs))
			for i, r := range runs {
				first[i] = r.run
			}
		}
		passes = append(passes, runs)
		m.add("sweep_s", wall.Seconds())
		fmt.Fprintf(cfg.log, "%s: pass %d: %.3fs\n", name, p+1, wall.Seconds())
	}
	m.add("peak_heap_mb", heap.mb())
	m.add("runtime.peak_rss_mb", peakRSS())
	engineMetrics(m, jobs, passes)
	for i, j := range jobs {
		if first[i] != nil {
			chk.cell(j, first[i])
		}
	}
	chk.agree(jobs, func(i int) *core.Result { return first[i] })
	attempted := len(jobs) * cfg.count

	if cfg.trace {
		tr := obs.NewTracer()
		tr.NameThread(benchLane, "benchmark")
		_, wall, err := enginePass(ctx, jobs, first, chk, &heapPeak{}, tr)
		if err != nil {
			return nil, err
		}
		attempted += len(jobs)
		m.add("trace.overhead", wall.Seconds()/median(m["sweep_s"])-1)
		if err := foldTrace(tr, m, cfg); err != nil {
			return nil, err
		}
		if err := probeSetup(jobs, m); err != nil {
			return nil, err
		}
	}
	return newResult(name, cfg, m, attempted, chk.failures)
}

// enginePass runs every cell once through sched.Execute, each after a
// GC barrier of its own so that the collector's work does not land in
// a cell, and checks each against first, the first pass's results (nil
// during the first pass). A tracer records the pass, its barriers and
// its cells.
func enginePass(ctx context.Context, jobs []sched.Job, first []*core.Result, chk *checker, heap *heapPeak, tr *obs.Tracer) ([]cellRun, time.Duration, error) {
	runs := make([]cellRun, len(jobs))
	root := tr.Begin(benchLane, "pass", "benchmark")
	t0 := time.Now()
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		sp := tr.Begin(benchLane, "sched.gc", "sched")
		tg := time.Now()
		runtime.GC()
		runs[i].gc = time.Since(tg)
		sp.End()

		sp = tr.Begin(benchLane, "sched.Execute", "sched").Arg("cell", j.String())
		tc := time.Now()
		r := sched.Execute(ctx, j)
		runs[i].wall = time.Since(tc)
		heap.sample()
		if r.Err != nil {
			sp.End()
			chk.failf("%v", r.Err)
			continue
		}
		sp.Arg("engine", j.Engine.Name).Arg("engine_ns", strconv.FormatInt(int64(r.Run.Total), 10)).End()
		runs[i].run = r.Run
		if first != nil && first[i] != nil {
			chk.repeat(j, first[i], r.Run)
		}
	}
	wall := time.Since(t0)
	root.End()
	return runs, wall, nil
}

// cellSamples is one cell's measurements over the passes or rounds that
// ran it.
type cellSamples struct {
	engine string
	// stats are the cell's engine counters, once per distinct run.
	stats                      engine.Stats
	insns, wall, total, kernel []float64
}

func (c *cellSamples) add(r *core.Result, wall time.Duration) {
	c.insns = append(c.insns, float64(r.Stats.Instructions))
	c.wall = append(c.wall, wall.Seconds())
	c.total = append(c.total, r.Total.Seconds())
	c.kernel = append(c.kernel, r.Kernel.Seconds())
}

// cellMetrics reports the rates, run times and counters of cells.
// Rates divide retired instructions by each cell's median time:
// guest_mips by the cell's wall time, as a user waits for it, and
// mips.<engine> by its kernel time, the window the guest itself times.
// Outside that window an engine allocates its per-run tables, whose
// cost swings with whether the Go runtime hands it fresh or recycled
// memory; that cost shows in engine.<engine>.run_s, guest_mips and
// sweep_s. The median, not the paper's minimum of repeats, for the
// same reason: a rare fast mode is caught by a minimum in some runs
// and not in others.
func cellMetrics(m metrics, cells []*cellSamples) {
	insns := map[string]float64{}
	runs := map[string]float64{}
	kernels := map[string]float64{}
	stats := map[string]*engine.Stats{}
	for _, e := range engineNames {
		stats[e] = &engine.Stats{}
	}
	var allInsns, allWall float64
	for _, c := range cells {
		n := median(c.insns)
		insns[c.engine] += n
		runs[c.engine] += median(c.total)
		kernels[c.engine] += median(c.kernel)
		stats[c.engine].Add(c.stats)
		allInsns += n
		allWall += median(c.wall)
	}
	m.add("guest_mips", ratio(allInsns, allWall)/1e6)
	for _, e := range engineNames {
		m.add("mips."+e, ratio(insns[e], kernels[e])/1e6)
		m.add("engine."+e+".run_s", runs[e])
		m.add("engine."+e+".kernel_s", kernels[e])
	}
	counterMetrics(m, stats)
}

// engineMetrics derives the end-to-end rates and the engine and core
// layer metrics from the untraced passes. Counters come from one pass,
// since every pass must repeat them exactly.
func engineMetrics(m metrics, jobs []sched.Job, passes [][]cellRun) {
	var cells []*cellSamples
	var cellMs []float64
	for i, j := range jobs {
		c := &cellSamples{engine: j.Engine.Name}
		for _, p := range passes {
			if r := p[i].run; r != nil {
				c.stats = r.Stats
				c.add(r, p[i].wall)
				cellMs = append(cellMs, ms(p[i].wall))
			}
		}
		if len(c.insns) > 0 {
			cells = append(cells, c)
		}
	}
	cellMetrics(m, cells)
	m.add("sched.cell_ms", median(cellMs))

	// Per pass: the mean set-up cost of a cell (its wall time outside
	// Engine.Run), the mean GC barrier, and the time spent in cells.
	var setupAll, wallAll time.Duration
	for _, p := range passes {
		var setup, gc, measure time.Duration
		n := 0
		for _, c := range p {
			if c.run == nil {
				continue
			}
			setup += c.wall - c.run.Total
			gc += c.gc
			measure += c.wall
			n++
		}
		setupAll += setup
		wallAll += measure
		m.add("core.setup_ms", ms(setup)/float64(max(n, 1)))
		m.add("sched.gc_ms", ms(gc)/float64(max(n, 1)))
		m.add("sched.measure_ms", ms(measure))
	}
	m.add("core.setup_share", ratio(setupAll.Seconds(), wallAll.Seconds()))
}

// counterMetrics reports each engine's deterministic counters.
func counterMetrics(m metrics, stats map[string]*engine.Stats) {
	for _, e := range engineNames {
		s := stats[e]
		p := "engine." + e + "."
		m.add(p+"tlb_hit_ratio", ratio(float64(s.TLBHits), float64(s.TLBHits+s.TLBMisses)))
		m.add(p+"page_walks", float64(s.PageWalks))
		m.add(p+"exceptions", float64(s.ExceptionsTaken))
		m.add(p+"smc_invalidations", float64(s.SMCInvalidations))
		m.add(p+"exclusive_fail_ratio", ratio(float64(s.ExclusiveFails), float64(s.ExclusiveOps)))
		if e == "interp" || e == "virt" || e == "native" {
			m.add(p+"pages_decoded", float64(s.PagesDecoded))
		}
	}
	d := stats["dbt"]
	m.add("engine.virt.vm_exits", float64(stats["virt"].VMExits))
	m.add("engine.dbt.blocks_translated", float64(d.BlocksTranslated))
	m.add("engine.dbt.translate_ratio", ratio(float64(d.InsnsTranslated), float64(d.Instructions)))
	m.add("engine.dbt.chain_ratio", ratio(float64(d.ChainFollows), float64(d.BlockExecutions)))
	m.add("engine.dbt.lookup_ratio", ratio(float64(d.CacheLookups), float64(d.BlockExecutions)))
	m.add("engine.dbt.superblock_follows", float64(d.SuperblockFollows))
}

// probeSetup times the three set-up steps core.Runner.Run performs
// before Engine.Run — guest build, assembly, platform construction —
// once for each distinct (arch, bench, cores, iters) among jobs, and
// reports their means per cell.
func probeSetup(jobs []sched.Job, m metrics) error {
	type guest struct {
		arch, bench string
		cores       int
		iters       int64
	}
	seen := map[guest]bool{}
	var build, assemble, plat time.Duration
	n := 0
	for _, j := range jobs {
		g := guest{j.Arch.Name(), j.Bench.Name, j.EffectiveCores(), j.Iters}
		if seen[g] {
			continue
		}
		seen[g] = true
		t0 := time.Now()
		env := &core.Env{A: asm.New(), Arch: j.Arch, Iters: j.Iters, Cores: g.cores}
		if err := j.Bench.Build(env); err != nil {
			return fmt.Errorf("%s: build: %w", j, err)
		}
		t1 := time.Now()
		prog, err := env.A.Assemble()
		if err != nil {
			return fmt.Errorf("%s: assemble: %w", j, err)
		}
		t2 := time.Now()
		p := platform.NewSMP(j.Arch.Profile(), core.DefaultRAMSize, g.cores)
		if err := p.LoadProgram(prog); err != nil {
			return fmt.Errorf("%s: load: %w", j, err)
		}
		t3 := time.Now()
		build += t1.Sub(t0)
		assemble += t2.Sub(t1)
		plat += t3.Sub(t2)
		n++
	}
	m.add("bench.build_ms", ms(build)/float64(max(n, 1)))
	m.add("asm.assemble_ms", ms(assemble)/float64(max(n, 1)))
	m.add("platform.new_ms", ms(plat)/float64(max(n, 1)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
