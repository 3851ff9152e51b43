package main

import "context"

// The workloads. Each one stresses one layer and leaves the others
// idle, so that a change in its numbers can be pinned on one cause —
// SimBench's own method, applied to simbench itself.
var workloads = []workload{
	{
		name: "engine-hotpath",
		why:  "cold cells whose wall time is almost all Engine.Run on the fast paths: dispatch, translated-block execution, chaining and soft-TLB hits",
		unit: 3.3, minCount: 3,
		run: func(ctx context.Context, cfg config) (*result, error) {
			return runEngines(ctx, "engine-hotpath", hotpath, cfg)
		},
	},
	{
		name: "engine-slowpath",
		why:  "the same engines on their slow paths: exception entry, TLB misses and page walks, TLB maintenance, MMIO and SMC retranslation",
		unit: 3.3, minCount: 3,
		run: func(ctx context.Context, cfg config) (*result, error) {
			return runEngines(ctx, "engine-slowpath", slowpath, cfg)
		},
	},
	{
		name: "smp",
		why:  "multi-core guests, where the round-robin hart driver, the LDX/STX exclusive monitor and IPIs carry the cost",
		unit: 3.3, minCount: 3,
		run: func(ctx context.Context, cfg config) (*result, error) {
			return runEngines(ctx, "smp", smp, cfg)
		},
	},
	{
		name: "sweep-incremental",
		why:  "incremental reruns against a growing on-disk store: key, disk get, history parse and append, noise and render next to a few fresh cells",
		unit: 0.4, minCount: 10,
		run: runSweep,
	},
}

// hotpath cells are the benchmarks whose kernels stay on each engine's
// fast paths, at sizes where engine time dominates the cell.
var hotpath = engineSpec{
	benches: []string{
		"mem.hot", "ctrl.intrapage-direct", "ctrl.intrapage-indirect", "ctrl.interpage-direct",
		"codegen.large-blocks", "spec.sjeng", "spec.gcc", "spec.bzip2", "spec.gobmk",
		"spec.hmmer", "spec.xalancbmk",
	},
	cores: []int{1},
	scale: 10000, specScale: 40,
}

// slowpath cells take exceptions, miss the TLB, walk page tables (a
// two-level walk on x86, a section on arm), flush TLBs, touch devices
// and rewrite their own code.
var slowpath = engineSpec{
	benches: []string{
		"exc.data-fault", "exc.inst-fault", "exc.undef", "exc.syscall", "exc.swi",
		"io.device", "io.coproc", "mem.cold", "mem.nonpriv", "mem.tlb-evict", "mem.tlb-flush",
		"codegen.small-blocks", "ext.smc-locality", "ext.section-vs-page", "ctrl.interpage-indirect",
		"spec.mcf", "spec.libquantum", "spec.perlbench", "spec.astar",
	},
	cores: []int{1},
	scale: 1000, specScale: 40,
}

// smp cells run the SMP family at one, two and four cores.
var smp = engineSpec{
	benches: []string{"smp.pingpong", "smp.lockcontend", "smp.falseshare"},
	cores:   []int{1, 2, 4},
	scale:   20, specScale: 20,
}
