// Command benchmark is the repository's benchmark: five named
// workloads against the real serving stack built in-process on loopback
// TCP (client → [router] → server → cluster → core/mcu/fpga → algos),
// driven closed-loop, every output verified against the algos host
// reference.
//
//	go run ./benchmark -seed 2005
//
// runs every workload and prints every metric by name with its unit
// and clock. The acceptance driver runs one workload per invocation:
//
//	go run ./benchmark --workload net-hot-small --seed 7 --seconds 20 --trace 0
//
// and reads the last line of standard output. See README.md beside
// this file for the metrics, the workloads and the noise protocol.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// Contract values: BENCHMARK.json's run_seconds, split into rounds.
const (
	defaultSeed    = 2005
	defaultSeconds = 20
	defaultRounds  = 20
)

// Trace modes: which half of the benchmark an invocation runs.
const (
	traceOff  = "0"    // end-to-end rounds only, tracing and registries off
	traceOn   = "1"    // per-layer run only: counted round + ladder
	traceBoth = "both" // both, end-to-end first
)

// workloadResult is everything one invocation measured on one workload.
type workloadResult struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Wrong     int    `json:"wrong_outputs"`
	// EndToEnd holds, per metric, the quartiles of its per-round values
	// and their count; the reported figure is metricDef.figure's pick.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	firstErr error
	spans    []span
}

// report is benchmark/out/result.json.
type report struct {
	Seed       uint64           `json:"seed"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Callers    int              `json:"callers"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"git_commit"`
	Rounds     int              `json:"rounds"`
	RoundSecs  float64          `json:"round_seconds"`
	Correct    bool             `json:"correct"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	ok, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run is main without the exit: ok is false when a set ran to the end
// but was incorrect, or a repeat check disagreed.
func run(ctx context.Context, args []string, stdout io.Writer) (ok bool, err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed of the generated traces; nothing else is random")
	seconds := fs.Float64("seconds", defaultSeconds, "timed seconds per workload, split evenly over -rounds")
	rounds := fs.Int("rounds", defaultRounds, "timed rounds per workload; every end-to-end metric is the better-side quartile over rounds")
	trace := fs.String("trace", traceBoth, "0 = end-to-end metrics only, 1 = per-layer metrics only, both")
	smoke := fs.Bool("smoke", false, "tiny protocol (1 round x 0.1 s, 1 set-up, 256-op trace, 50-op ladder) that touches every path")
	repeat := fs.Bool("check-repeat", false, "run two sets back to back and fail if any end-to-end figure differs by more than its bound")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *rounds < 1 || *seconds <= 0 {
		return false, errors.New("-rounds and -seconds must be positive")
	}
	if !slices.Contains([]string{traceOff, traceOn, traceBoth}, *trace) {
		return false, fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return false, err
		}
		ws = []*workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, setupReps: setupReps, setupMost: setupMost}
	if *smoke {
		cfg = config{seed: *seed, seconds: 0.1, rounds: 1, setupReps: 1, setupMost: 1, traceOps: 256, ladderOps: 50}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if err := pinProcess(); err != nil {
		return false, fmt.Errorf("pinning to one CPU: %w", err)
	}

	if *repeat {
		return checkRepeat(ctx, ws, cfg, stdout)
	}
	rep, err := runSet(ctx, ws, cfg, *trace)
	if err != nil {
		return false, err
	}
	rep.print(stdout)
	if err := rep.write(*out); err != nil {
		return false, err
	}
	line, err := json.Marshal(rep.resultLine(*trace))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep.Correct, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runSet measures ws once. All stacks are built first; the timed
// rounds then interleave round-robin across workloads, so a slow
// stretch of the machine lands on one round of each rather than on all
// rounds of one. The traced runs come last and feed no end-to-end
// figure.
func runSet(ctx context.Context, ws []*workload, cfg config, trace string) (*report, error) {
	rep := &report{
		Seed: cfg.seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Callers: callers,
		GoVersion: runtime.Version(), Commit: commit(),
		Rounds: cfg.rounds, RoundSecs: cfg.roundDur().Seconds(),
		Correct:   true,
		Workloads: make([]workloadResult, len(ws)),
	}
	for i, w := range ws {
		rep.Workloads[i] = workloadResult{Workload: w.name, Why: w.why}
	}
	if trace != traceOn {
		benches := make([]*bench, 0, len(ws))
		defer func() {
			for _, b := range benches {
				b.stack.close()
			}
		}()
		for _, w := range ws {
			b, err := newBench(ctx, w, cfg)
			if err != nil {
				return nil, err
			}
			benches = append(benches, b)
		}
		for range cfg.rounds {
			for _, b := range benches {
				b.round(ctx, cfg.roundDur())
			}
		}
		for i, b := range benches {
			if err := b.stack.checkInvariants(); err != nil {
				return nil, fmt.Errorf("%s: invariant broken after the last round: %w", b.w.name, err)
			}
			r := &rep.Workloads[i]
			r.EndToEnd = b.endToEnd()
			r.count(b.tally)
			// A card model whose time differs between identical set-ups
			// is wrong, whatever its outputs.
			if !b.virtualTimeRepeats() {
				r.firstErr = fmt.Errorf("virtual time differs between identical set-ups: %v us per request", r.EndToEnd["virt_us_per_op"])
				rep.Correct = false
			}
		}
	}
	if trace != traceOff {
		for i, w := range ws {
			tr, err := runTraced(ctx, w, cfg)
			if err != nil {
				return nil, err
			}
			r := &rep.Workloads[i]
			r.PerLayer, r.spans = tr.values, tr.spans
			r.count(tr.tally)
		}
	}
	for _, r := range rep.Workloads {
		if r.Wrong > 0 {
			rep.Correct = false
		}
	}
	return rep, nil
}

func (r *workloadResult) count(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Wrong += t.wrong
	if r.firstErr == nil {
		r.firstErr = t.firstErr
	}
}

// commit is the VCS revision the binary was stamped with, when there
// was one to stamp (a checkout that is not a repository has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes every metric by name, with unit, clock and spread.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d  nproc %d  GOMAXPROCS %d  callers %d  %s  commit %s  %d rounds x %.2fs\n",
		rep.Seed, rep.NProc, rep.GOMAXPROCS, rep.Callers, rep.GoVersion, rep.Commit, rep.Rounds, rep.RoundSecs)
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s  attempted %d  failed %d  wrong %d\n", r.Workload, r.Attempted, r.Failed, r.Wrong)
		if r.firstErr != nil {
			fmt.Fprintf(w, "   first error: %v\n", r.firstErr)
		}
		if r.EndToEnd != nil {
			fmt.Fprintf(w, "   %-30s %14s %-6s %-8s %3s %14s %8s\n", "end-to-end", "figure", "unit", "clock", "n", "median", "iqr/med")
			for _, m := range endToEnd {
				s := r.EndToEnd[m.Name]
				fmt.Fprintf(w, "   %-30s %14.4f %-6s %-8s %3d %14.4f %7.2f%%\n", m.Name, m.figure(s), m.Unit, m.Clock, s.N, s.Median, 100*s.spread())
			}
		}
		if r.PerLayer != nil {
			fmt.Fprintf(w, "   %-30s %14s %-6s %-8s\n", "per-layer", "value", "unit", "clock")
			for _, m := range perLayer {
				fmt.Fprintf(w, "   %-30s %14.4f %-6s %-8s\n", m.Name, r.PerLayer[m.Name], m.Unit, m.Clock)
			}
		}
	}
	fmt.Fprintln(w)
}

// write stores result.json and one span file per traced workload.
func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), rep); err != nil {
		return err
	}
	for _, r := range rep.Workloads {
		if r.spans == nil {
			continue
		}
		if err := writeJSON(filepath.Join(dir, "trace-"+r.Workload+".json"), r.spans); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the last line of standard output, the acceptance
// driver's view: with -trace 0 every end-to-end metric, with -trace 1
// every per-layer metric. With several workloads in one invocation the
// metric names are prefixed "<workload>/".
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) resultLine(trace string) resultLine {
	line := resultLine{Correct: rep.Correct, Metrics: make(map[string]metricValue)}
	for _, r := range rep.Workloads {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = r.Workload + "/"
		}
		if trace != traceOn {
			for _, m := range endToEnd {
				line.Metrics[prefix+m.Name] = metricValue{m.figure(r.EndToEnd[m.Name]), m.Unit}
			}
		}
		if trace != traceOff {
			for _, m := range perLayer {
				line.Metrics[prefix+m.Name] = metricValue{r.PerLayer[m.Name], m.Unit}
			}
		}
	}
	return line
}
