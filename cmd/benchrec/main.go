// benchrec gives benchmark runs a memory. It runs a prebuilt benchmark
// binary once per workload and records what it measured, with
// provenance, in BENCH_<pr>.json in the current directory; and it
// compares two such files.
//
// Usage:
//
//	benchrec -bench ./bench -pr 46 -seed 7 -seconds 20   # writes BENCH_46.json
//	benchrec -diff -virt-declared BENCH_44.json BENCH_46.json
//	benchrec -pair -workload net-hot-small -n 10 ./bench-old ./bench-new
//
// -diff fails on a virt_us_per_op change (unless -virt-declared), an
// allocs_per_op change beyond ±0.01 (both exact at one seed), a seed
// mismatch, a workload or exact figure either record lacks, or a failed
// or wrong run. Wall-clock rows are printed as median [q1, q3]
// and never pass or fail.
//
// -pair runs two prebuilt benchmark binaries on one workload in n
// alternating pairs, swapping which runs first each pair. For each
// end-to-end metric that BENCHMARK.json in the current directory
// declares, it prints each side's median [q1, q3] over the runs and the
// pairs the new binary won, and "unresolved" where either side's
// interquartile range, relative to its median, is wider than the
// metric's bound. It reports and decides nothing; it
// fails only on a run that failed operations or was wrong.
package main

import (
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

var (
	// workloads are the benchmark's, in its own order.
	workloads = []string{"net-hot-small", "net-cold-zipf", "net-compute-crypto", "fleet-hot-small", "sim-paper-mix"}
	// wallClock are the end-to-end metrics one machine cannot gate.
	wallClock = []string{"ops_per_s", "p50_us", "p90_us", "setup_s"}
)

// summary is one metric's spread over a run's rounds, from result.json.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// run is one workload's result line plus result.json's spreads.
type run struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]figure  `json:"metrics"`
	EndToEnd  map[string]summary `json:"end_to_end"`
}

// figure is one metric of the result line.
type figure struct {
	Value float64 `json:"value"`
}

type provenance struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
}

// record is a BENCH_<pr>.json file.
type record struct {
	PR         int            `json:"pr"`
	Provenance provenance     `json:"provenance"`
	Workloads  map[string]run `json:"workloads"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	bench := fs.String("bench", "./bench", "prebuilt benchmark binary (go build -o bench ./benchmark)")
	pr := fs.Int("pr", 0, "change number; the record is written to BENCH_<pr>.json")
	seed := fs.Uint64("seed", 7, "workload seed")
	seconds := fs.Float64("seconds", 20, "timed seconds per workload")
	diff := fs.Bool("diff", false, "compare two records: benchrec -diff OLD NEW")
	virtDeclared := fs.Bool("virt-declared", false, "with -diff: the change declares a virtual-time move")
	pair := fs.Bool("pair", false, "run two benchmark binaries in alternating pairs: benchrec -pair OLD NEW")
	workload := fs.String("workload", "", "with -pair: the workload to run")
	n := fs.Int("n", 10, "with -pair: how many pairs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pair {
		if fs.NArg() != 2 || *workload == "" || *n < 1 {
			return errors.New("-pair takes two binaries, a -workload and -n of at least 1")
		}
		return pairRuns([2]string{fs.Arg(0), fs.Arg(1)}, *workload, *n,
			provenance{Seed: *seed, Seconds: *seconds}, stdout)
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("-diff takes two files")
		}
		return diffFiles(fs.Arg(0), fs.Arg(1), *virtDeclared, stdout)
	}
	if *pr <= 0 {
		return errors.New("-pr must name the change")
	}
	rec := record{PR: *pr, Provenance: provenance{Seed: *seed, Seconds: *seconds, CPU: cpuModel()},
		Workloads: make(map[string]run)}
	rec.Provenance.Commit, rec.Provenance.GoVersion = build(*bench)
	for _, w := range workloads {
		r, err := measure(*bench, w, &rec.Provenance)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		rec.Workloads[w] = r
		fmt.Fprintf(stdout, "%-20s virt_us_per_op %.3f  allocs_per_op %.4f  attempted %d  failed %d  correct %v\n",
			w, r.Metrics["virt_us_per_op"].Value, r.Metrics["allocs_per_op"].Value, r.Attempted, r.Failed, r.Correct)
	}
	data, _ := json.MarshalIndent(rec, "", "  ") // plain structs always marshal
	return os.WriteFile(fmt.Sprintf("BENCH_%d.json", *pr), append(data, '\n'), 0o644)
}

// measure runs the benchmark's end-to-end half on one workload, reads
// its result line and result.json, and fills in prov from the latter.
func measure(bench, workload string, prov *provenance) (run, error) {
	var r run
	dir, err := os.MkdirTemp("", "benchrec")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command(bench, "--workload", workload, "--seed", fmt.Sprint(prov.Seed),
		"--seconds", fmt.Sprint(prov.Seconds), "--trace", "0", "-out", dir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output() // an incorrect run exits 1 but still reports
	stdout = bytes.TrimSpace(stdout)
	if err := json.Unmarshal(stdout[bytes.LastIndexByte(stdout, '\n')+1:], &r); err != nil {
		return r, fmt.Errorf("reading the result line (run: %v): %w", runErr, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return r, err
	}
	var rep struct {
		GOMAXPROCS int   `json:"gomaxprocs"`
		NProc      int   `json:"nproc"`
		Workloads  []run `json:"workloads"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return r, fmt.Errorf("result.json: %w", err)
	}
	if len(rep.Workloads) != 1 {
		return r, fmt.Errorf("result.json holds %d workloads, want 1", len(rep.Workloads))
	}
	r.EndToEnd = rep.Workloads[0].EndToEnd
	prov.GOMAXPROCS, prov.NProc = rep.GOMAXPROCS, rep.NProc
	return r, nil
}

// build reads the commit (marked "+modified" when the tree had
// uncommitted changes) and the Go version the benchmark was built from.
func build(bench string) (commit, goVersion string) {
	bi, err := buildinfo.ReadFile(bench)
	if err != nil {
		return "unknown", "unknown"
	}
	rev, mod := "unknown", ""
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			rev = s.Value
		} else if s.Key == "vcs.modified" && s.Value == "true" {
			mod = "+modified"
		}
	}
	return rev + mod, bi.GoVersion
}

// cpuModel is /proc/cpuinfo's first "model name", or else GOARCH.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: GOARCH stands in
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// diffFiles prints old against new per workload and returns an error
// naming every exact figure that moved without being declared.
func diffFiles(oldPath, newPath string, virtDeclared bool, w io.Writer) error {
	var recs [2]record
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	old, cur := recs[0], recs[1]
	var fails []error
	if s0, s1 := old.Provenance.Seed, cur.Provenance.Seed; s0 != s1 {
		fails = append(fails, fmt.Errorf("seeds differ (%d, %d): exact figures compare only at one seed", s0, s1))
	}
	fmt.Fprintf(w, "BENCH_%d (%s) → BENCH_%d (%s), seed %d\n",
		old.PR, old.Provenance.Commit, cur.PR, cur.Provenance.Commit, cur.Provenance.Seed)
	for _, name := range workloads {
		o, inOld := old.Workloads[name]
		n, inNew := cur.Workloads[name]
		if !inOld || !inNew { // every record holds every workload
			fails = append(fails, fmt.Errorf("%s: missing (in old %v, in new %v)", name, inOld, inNew))
			continue
		}
		fmt.Fprintf(w, "\n%s\n", name)
		if n.Failed > 0 || !n.Correct {
			fails = append(fails, fmt.Errorf("%s: %d failed, correct %v", name, n.Failed, n.Correct))
		}
		for _, m := range []string{"virt_us_per_op", "allocs_per_op"} {
			of, inOld := o.Metrics[m]
			nf, inNew := n.Metrics[m]
			if !inOld || !inNew { // a record without the figure cannot show it held still
				fails = append(fails, fmt.Errorf("%s: %s missing (old %v, new %v)", name, m, inOld, inNew))
				continue
			}
			ov, nv := of.Value, nf.Value
			verdict, moved := "same", ov != nv
			if m == "allocs_per_op" {
				verdict, moved = "within ±0.01", math.Abs(nv-ov) > 0.01
			}
			switch {
			case moved && m == "virt_us_per_op" && virtDeclared:
				verdict = fmt.Sprintf("moved %+.1f %% (declared)", 100*(nv-ov)/ov)
			case moved:
				verdict = "MOVED, not declared"
				fails = append(fails, fmt.Errorf("%s: %s %.4f → %.4f", name, m, ov, nv))
			}
			fmt.Fprintf(w, "  %-15s %10.4f → %10.4f  %s\n", m, ov, nv, verdict)
		}
		for _, m := range wallClock {
			a, b := o.EndToEnd[m], n.EndToEnd[m]
			fmt.Fprintf(w, "  %-15s %.4g [%.4g, %.4g] → %.4g [%.4g, %.4g]\n", m, a.Median, a.Q1, a.Q3, b.Median, b.Q1, b.Q3)
		}
	}
	return errors.Join(fails...)
}

// pairRuns runs bins[0] (old) and bins[1] (new) on workload n times
// each, alternating which goes first, and prints per metric each side's
// spread over its runs and how many pairs the new side won.
func pairRuns(bins [2]string, workload string, n int, prov provenance, w io.Writer) error {
	const specPath = "BENCHMARK.json"
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var runs [2][]run
	var fails []error
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // pair i runs the old side first when i is even
			r, err := measure(bins[side], workload, &prov)
			if err != nil {
				return fmt.Errorf("%s, pair %d: %w", bins[side], i+1, err)
			}
			if r.Failed > 0 || !r.Correct {
				fails = append(fails, fmt.Errorf("%s, pair %d: %d failed, correct %v", bins[side], i+1, r.Failed, r.Correct))
			}
			runs[side] = append(runs[side], r)
		}
	}
	fmt.Fprintf(w, "%s: %d pairs, seed %d, %g s per run; old = %s, new = %s\n",
		workload, n, prov.Seed, prov.Seconds, bins[0], bins[1])
	fmt.Fprintf(w, "  %-15s %-32s %-32s %-8s\n", "metric", "old median [q1, q3]", "new median [q1, q3]", "new won")
	for _, m := range spec.EndToEnd {
		var vals [2][]float64
		won := 0
		for i := 0; i < n; i++ {
			o, nv := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
			vals[0], vals[1] = append(vals[0], o), append(vals[1], nv)
			if (m.Better == "higher" && nv > o) || (m.Better == "lower" && nv < o) {
				won++
			}
		}
		verdict := ""
		var cols [2]string
		for side := range vals {
			q1, med, q3 := quartiles(vals[side])
			cols[side] = fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
			if med != 0 && (q3-q1)/math.Abs(med) > m.Bound {
				verdict = "unresolved"
			}
		}
		fmt.Fprintf(w, "  %-15s %-32s %-32s %2d/%-5d %s\n", m.Name, cols[0], cols[1], won, n, verdict)
	}
	return errors.Join(fails...)
}

// quartiles reports the first quartile, median and third quartile of
// vals, interpolating between order statistics.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
