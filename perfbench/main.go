// Command perfbench is the repository benchmark: it runs one named
// workload of the LBP simulator or of the lbp-serve stack for a fixed
// time, checks every output against an oracle, and prints the metrics
// named in BENCHMARK.json. With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it runs the workload again with spans around
// every call into a layer and prints the per-layer metrics together
// with the tracing overhead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, normally through perfbench/run.py,
// which builds this package first):
//
//	perfbench --workload sim-dense --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// watchdog bounds a run: the benchmark must exit within 180 s.
const watchdog = 170 * time.Second

// clients is the closed-loop client count of every workload: one per
// host CPU of the reference machine, each with one operation in flight.
const clients = 2

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median.
const setupRepeats = 5

// runConfig is what one invocation asks for.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// tiny shrinks every workload to its smallest inputs (self-test).
	tiny bool
	// corrupt flips one expected digest, so a correct program fails
	// the oracle (self-test of the oracle itself).
	corrupt bool

	workDir string    // scratch directory inside the checkout
	log     io.Writer // human-readable report lines
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed operation, with the reason on the report.
func (o *outcome) fail(cfg *runConfig, format string, args ...any) {
	o.failed++
	fmt.Fprintf(cfg.log, "FAIL: "+format+"\n", args...)
}

// workloads maps each BENCHMARK.json workload to its implementation.
var workloadFuncs = map[string]func(*runConfig) (*outcome, error){
	"sim-dense":   runSimDense,
	"serve-fleet": runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded", watchdog)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its report. It returns
// the process exit code: 0 when every output was correct.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &runConfig{log: stdout}
	fs.StringVar(&cfg.workload, "workload", "", "workload name (sim-dense, serve-fleet)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "smallest inputs (self-test)")
	fs.BoolVar(&cfg.corrupt, "corrupt-oracle", false, "flip one expected digest (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadFuncs[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.trace = *traceFlag == 1

	dir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %t clients %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, clients)
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	catalog := endToEnd
	if cfg.trace {
		catalog = perLayer()
	}
	rep := report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(catalog)),
	}
	if rep.Attempted < 1 {
		rep.Attempted, rep.Failed, rep.Correct = 1, 1, false
		fmt.Fprintln(stdout, "FAIL: no operation completed")
	}
	for _, m := range catalog {
		rep.Metrics[m.name] = metricOut{Value: out.metrics[m.name], Unit: m.unit}
		fmt.Fprintf(stdout, "metric %-40s %16.6g %s\n", m.name, out.metrics[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "failed_ratio %g (%d of %d)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is the checkout-local directory the benchmark may write:
// $CARGO_TARGET_DIR when set, else .bench_build.
func buildDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	if err := os.MkdirAll(d, 0o755); err != nil {
		return os.TempDir()
	}
	return d
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects garbage and returns the freed memory to the OS, so
// the peak RSS of the next phase does not depend on when the collector
// last ran.
func settle() { debug.FreeOSMemory() }

// writeSpans saves the traced run's spans next to the build outputs.
func writeSpans(cfg *runConfig, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	path := filepath.Join(buildDir(), fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans %d written to %s\n", len(spans), path)
	return nil
}
