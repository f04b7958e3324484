package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordSmoke builds the benchmark, measures one short run of one
// workload, and diffs a record made of it: against itself it is clean;
// with virtual time moved it fails unless the move is declared; with
// allocations moved by more than 0.01 it fails; and a record that lacks
// a workload or a gated figure fails.
func TestRecordSmoke(t *testing.T) {
	dir, bench := buildBench(t)
	prov := provenance{Seed: 7, Seconds: 0.2, CPU: cpuModel()}
	prov.Commit, prov.GoVersion = build(bench)
	r, err := measure(bench, "sim-paper-mix", &prov)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 || r.Metrics["virt_us_per_op"].Value <= 0 ||
		r.EndToEnd["ops_per_s"].N == 0 {
		t.Fatalf("measured run: %+v", r)
	}
	if prov.GoVersion == "" || prov.NProc == 0 || prov.GOMAXPROCS == 0 || prov.CPU == "" || prov.Commit == "" {
		t.Errorf("provenance: %+v", prov)
	}
	// A whole record, every workload standing in as the measured run.
	rec := record{PR: 1, Provenance: prov, Workloads: make(map[string]run)}
	for _, w := range workloads {
		rec.Workloads[w] = r
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	// write saves a copy of the record, edited, beside the original.
	write := func(name string, edit func(*record)) string {
		var m record
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		edit(&m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	moved := func(name, metric string, by float64) string {
		return write(name, func(m *record) {
			w := m.Workloads["sim-paper-mix"]
			w.Metrics[metric] = figure{Value: w.Metrics[metric].Value + by}
		})
	}
	diff := func(args ...string) error { return mainErr(append([]string{"-diff"}, args...), io.Discard) }

	path := write("BENCH_1.json", func(*record) {})
	if err := diff(path, path); err != nil {
		t.Errorf("a record differs from itself: %v", err)
	}
	virt := moved("virt.json", "virt_us_per_op", -1)
	if err := diff(path, virt); err == nil || !strings.Contains(err.Error(), "sim-paper-mix: virt_us_per_op") {
		t.Errorf("undeclared virtual-time move: diff error %v", err)
	}
	if err := diff("-virt-declared", path, virt); err != nil {
		t.Errorf("declared virtual-time move: %v", err)
	}
	if err := diff(path, moved("allocs.json", "allocs_per_op", 0.02)); err == nil {
		t.Error("allocs_per_op moved by 0.02 passed the diff")
	}
	if err := diff(path, moved("allocs-ok.json", "allocs_per_op", 0.005)); err != nil {
		t.Errorf("allocs_per_op moved by 0.005: %v", err)
	}
	for name, edit := range map[string]func(*record){
		"lost-workload.json": func(m *record) { delete(m.Workloads, "net-cold-zipf") },
		"no-workloads.json":  func(m *record) { m.Workloads = nil },
		"lost-allocs.json":   func(m *record) { delete(m.Workloads["net-cold-zipf"].Metrics, "allocs_per_op") },
	} {
		lacking := write(name, edit)
		if err := diff("-virt-declared", path, lacking); err == nil || !strings.Contains(err.Error(), "net-cold-zipf") {
			t.Errorf("new record %s: diff error %v", name, err)
		}
		if err := diff("-virt-declared", lacking, path); err == nil {
			t.Errorf("old record %s passed the diff", name)
		}
	}
}

// buildBench builds the benchmark into a temporary directory, skipping
// the test in -short mode or without a go tool.
func buildBench(t *testing.T) (dir, bench string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the benchmark with")
	}
	dir = t.TempDir()
	bench = filepath.Join(dir, "bench")
	if out, err := exec.Command(goTool, "build", "-o", bench, "agilefpga/benchmark").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	return dir, bench
}

// TestPairSmoke runs one short pair of the benchmark against itself:
// every end-to-end metric BENCHMARK.json declares gets a row, and the
// virtual-time figure, exact at one seed, wins no pair.
func TestPairSmoke(t *testing.T) {
	_, bench := buildBench(t)
	t.Chdir(filepath.Join("..", "..")) // where BENCHMARK.json is
	var out strings.Builder
	args := []string{"-pair", "-workload", "sim-paper-mix", "-n", "1", "-seconds", "0.2", bench, bench}
	if err := mainErr(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, m := range []string{"ops_per_s", "p50_us", "p90_us", "allocs_per_op", "setup_s"} {
		if !strings.Contains(out.String(), "\n  "+m+" ") {
			t.Errorf("no %s row:\n%s", m, out.String())
		}
	}
	var virt string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "  virt_us_per_op ") {
			virt = l
		}
	}
	if !strings.Contains(virt, " 0/1 ") {
		t.Errorf("the same binary won a virtual-time pair: %q", virt)
	}
	if err := mainErr([]string{"-pair", "-workload", "sim-paper-mix", bench}, io.Discard); err == nil {
		t.Error("-pair with one binary accepted")
	}
}

// TestCheckedInRecords: the records kept at the repository root diff as
// their change declared — the default codec's virtual-time move, and no
// allocation change; then a change that moved neither; then streaming,
// which moved the resident workloads and not the cold one.
func TestCheckedInRecords(t *testing.T) {
	old, cur := filepath.Join("..", "..", "BENCH_44.json"), filepath.Join("..", "..", "BENCH_46.json")
	if err := mainErr([]string{"-diff", old, cur}, io.Discard); err == nil || !strings.Contains(err.Error(), "net-cold-zipf: virt_us_per_op") {
		t.Errorf("undeclared diff of BENCH_44 → BENCH_46: %v", err)
	}
	if err := mainErr([]string{"-diff", "-virt-declared", old, cur}, io.Discard); err != nil {
		t.Errorf("declared diff of BENCH_44 → BENCH_46: %v", err)
	}
	if err := mainErr([]string{"-diff", cur, filepath.Join("..", "..", "BENCH_48.json")}, io.Discard); err != nil {
		t.Errorf("undeclared diff of BENCH_46 → BENCH_48: %v", err)
	}
	// Streaming a call through the card moved every resident workload's
	// virtual time and left the cold one's.
	old, cur = filepath.Join("..", "..", "BENCH_48.json"), filepath.Join("..", "..", "BENCH_49.json")
	err := mainErr([]string{"-diff", old, cur}, io.Discard)
	for _, w := range []string{"net-hot-small", "net-compute-crypto", "fleet-hot-small", "sim-paper-mix"} {
		if err == nil || !strings.Contains(err.Error(), w+": virt_us_per_op") {
			t.Errorf("undeclared diff of BENCH_48 → BENCH_49 does not name %s: %v", w, err)
		}
	}
	if err != nil && strings.Contains(err.Error(), "net-cold-zipf") {
		t.Errorf("undeclared diff of BENCH_48 → BENCH_49 names net-cold-zipf: %v", err)
	}
	var out strings.Builder
	if err := mainErr([]string{"-diff", "-virt-declared", old, cur}, &out); err != nil {
		t.Errorf("declared diff of BENCH_48 → BENCH_49: %v", err)
	}
	for _, want := range []string{
		"net-compute-crypto\n  virt_us_per_op      6.5960 →     3.2254  moved",
		"net-hot-small\n  virt_us_per_op      3.4458 →     3.0377  moved",
		"net-cold-zipf\n  virt_us_per_op     40.0408 →    40.0408  same",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("declared diff of BENCH_48 → BENCH_49 lacks %q:\n%s", want, out.String())
		}
	}
}
