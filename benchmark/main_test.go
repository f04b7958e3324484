package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"agilefpga/internal/testutil"
)

// Every stack the benchmark builds must be gone when it returns.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := testutil.CheckGoroutineLeaks(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json is what the acceptance driver reads; the tables in
// this package are what the program prints. They must say the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !slices.Equal(c.Command, want) {
		t.Errorf("command %v, want %v", c.Command, want)
	}
	if want := []string{"benchmark"}; !slices.Equal(c.Paths, want) {
		t.Errorf("paths %v, want %v", c.Paths, want)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want the program's default %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i := range want {
			w := want[i]
			w.Clock = "" // not part of the file
			if got[i] != w {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], w)
			}
		}
	}
	same("end-to-end", c.EndToEnd, endToEnd)
	same("per-layer", c.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// The smoke protocol touches every path — five stacks, timed round,
// counted round, every rung of every ladder, the component rungs, the
// output files — and every output it sees is verified.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five serving stacks on loopback")
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	ok, err := run(context.Background(), []string{"-smoke", "-out", dir}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("smoke run incorrect:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("result line: correct %v attempted %d failed %d", line.Correct, line.Attempted, line.Failed)
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if v := line.Metrics[w.name+"/"+m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s %s = %+v, want a positive value in %s", w.name, m.Name, v, m.Unit)
			}
		}
		for _, m := range perLayer {
			if _, ok := line.Metrics[w.name+"/"+m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}
		if v := line.Metrics[w.name+"/algos.exec_us"].Value; v <= 0 {
			t.Errorf("%s: algos.exec_us = %v, want the ladder to reach the cores", w.name, v)
		}
		spans, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var ss []span
		if err := json.Unmarshal(spans, &ss); err != nil || len(ss) == 0 {
			t.Errorf("%s: span file: %d spans, err %v", w.name, len(ss), err)
		}
	}
	var rep report
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seed != defaultSeed || len(rep.Workloads) != len(workloads) || rep.GoVersion == "" {
		t.Errorf("result.json provenance: seed %d, %d workloads, go %q", rep.Seed, len(rep.Workloads), rep.GoVersion)
	}
}

// One workload per invocation is the acceptance driver's shape: flat
// metric names, end-to-end with -trace 0 and per-layer with -trace 1.
func TestDriverInvocationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds serving stacks on loopback")
	}
	for trace, want := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout bytes.Buffer
		args := []string{"-smoke", "--workload", "sim-paper-mix", "--seed", "7", "--trace", trace, "-out", t.TempDir()}
		if ok, err := run(context.Background(), args, &stdout); err != nil || !ok {
			t.Fatalf("-trace %s: ok %v err %v", trace, ok, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, want exactly %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := line.Metrics[m.Name]; !ok {
				t.Errorf("-trace %s: metric %s missing", trace, m.Name)
			}
		}
	}
}

func TestBadFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-rounds", "0"},
	} {
		if _, err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
