// Command benchmark is simbench's performance yardstick. Each workload
// isolates one layer of the simulator — the engines' fast paths, their
// slow paths, the SMP hart driver, or the result store under an
// incremental sweep — and runs it closed-loop in one process, timing
// the public entry points users already hit from outside. It prints
// one JSON report with every end-to-end metric (median, quartiles and
// sample count) and every per-layer metric, then a one-line summary
// for tools: correct, attempted, failed and the metric values.
//
// Run it from the repository root through the wrapper, which builds it
// first:
//
//	bash benchmark/run.sh --workload engine-hotpath --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1
//	bash benchmark/run.sh --compare setA.jsonl setB.jsonl
//
// See README.md in this directory for the workloads, the metrics and
// how to read a trace.
package main

import (
	"context"
	"embed"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
)

// goldenFiles holds each workload's seed-1 cell counts and result
// hashes (see check.go).
//
//go:embed testdata/*.golden
var goldenFiles embed.FS

// config is one run's parameters.
type config struct {
	seed int64
	// count is the number of timed passes (engine workloads) or rounds
	// (sweep-incremental).
	count int
	// setups is how many times the set-up is repeated; setup_s is
	// their median.
	setups int
	// shrink divides every iteration count further; 1 is the real
	// benchmark, tests use more.
	shrink int64
	trace  bool
	// traceOut is where a traced run writes its Chrome trace.
	traceOut string
	gold     *golden
	log      io.Writer
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// unit is the nominal wall time of one timed pass or round on the
	// reference two-core host; --seconds converts to a pass count
	// through it, so the amount of work never depends on how fast the
	// code under test is.
	unit float64
	// minCount floors the number of timed passes or rounds.
	minCount int
	run      func(context.Context, config) (*result, error)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed (1 is the default; 2 is held out for checking claims)")
	seconds := fs.Int("seconds", 20, "nominal measuring time; sets the number of timed passes or rounds")
	trace := fs.Int("trace", 0, "1 adds one traced pass and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	goldenOut := fs.String("golden-out", "", "write this run's cell counts and result hashes to the named golden file")
	compare := fs.Bool("compare", false, "compare two result sets given as arguments: -compare setA setB")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark description holding the end-to-end bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result sets")
			return 2
		}
		regressed, err := compareSets(stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fs.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *name == "all" {
		return runAll(ctx, stdout, stderr, *seed, *seconds, *trace)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// At most two threads of work, like the reference host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := config{
		seed:   *seed,
		count:  max(w.minCount, int(float64(*seconds)/w.unit+0.5)),
		setups: 3,
		shrink: 1,
		trace:  *trace == 1,
		log:    stderr,
	}
	if cfg.trace {
		cfg.traceOut = *traceOut
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		}
	}
	gold, err := loadGolden(w.name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Seed 1 at full size is what the golden file was recorded from, so
	// there every cell must be in it.
	gold.requireAll = *seed == 1
	cfg.gold = gold
	if *goldenOut != "" {
		gold.record = map[string]goldenCell{}
	}

	res, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if *goldenOut != "" {
		if err := gold.write(*goldenOut, w.name, *seed); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "benchmark: %s: FAIL %s\n", w.name, f)
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so that the memory
// metrics belong to one workload.
func runAll(ctx context.Context, stdout, stderr io.Writer, seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			code = 1
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return code
			}
		}
	}
	return code
}

// heapPeak tracks the largest Go heap a cell or round leaves behind:
// the bytes of heap objects, live or not yet collected, sampled right
// after every cell or round. Unlike the process's peak RSS it does not
// depend on when the runtime hands freed memory back to the OS, and
// unlike the live heap of the last GC cycle it does not depend on
// where in a cell that cycle happened to run, so it repeats from run
// to run.
type heapPeak struct{ max uint64 }

func (h *heapPeak) sample() {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	h.max = max(h.max, s[0].Value.Uint64())
}

func (h *heapPeak) mb() float64 { return float64(h.max) / (1 << 20) }

// peakRSS is the process's peak resident set size (VmHWM) in MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
