package exp

import (
	"fmt"
	"sort"
)

// Experiment describes one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment at full scale and returns its table.
	Run func() (*Table, error)
}

// All returns the experiment catalogue in id order.
func All() []Experiment {
	exps := []Experiment{
		{"e1", "End-to-end architecture (Figure 1)", func() (*Table, error) {
			r, err := RunE1()
			return tableOf(r, err)
		}},
		{"e2", "Bitstream compression codecs", func() (*Table, error) {
			r, err := RunE2()
			return tableOf(r, err)
		}},
		{"e3", "Frame replacement policies", func() (*Table, error) {
			r, err := RunE3(2000)
			return tableOf(r, err)
		}},
		{"e4", "Contiguous vs scatter placement", func() (*Table, error) {
			r, err := RunE4(1000)
			return tableOf(r, err)
		}},
		{"e5", "Offload speedup per function", func() (*Table, error) {
			r, err := RunE5(12 * 1024)
			return tableOf(r, err)
		}},
		{"e6", "Offload crossover sweep", func() (*Table, error) {
			r, err := RunE6(0)
			return tableOf(r, err)
		}},
		{"e7", "Decompression window ablation", func() (*Table, error) {
			r, err := RunE7()
			return tableOf(r, err)
		}},
		{"e8", "ROM capacity per codec", func() (*Table, error) {
			r, err := RunE8()
			return tableOf(r, err)
		}},
		{"e9", "Difference-based reconfiguration", func() (*Table, error) {
			r, err := RunE9()
			return tableOf(r, err)
		}},
		{"e10", "Configuration prefetching", func() (*Table, error) {
			r, err := RunE10(1000)
			return tableOf(r, err)
		}},
		{"e11", "Batched pipelined calls", func() (*Table, error) {
			r, err := RunE11(32, 4096)
			return tableOf(r, err)
		}},
		{"e12", "Device-size scaling", func() (*Table, error) {
			r, err := RunE12(1000)
			return tableOf(r, err)
		}},
		{"e13", "Host-side job scheduling", func() (*Table, error) {
			r, err := RunE13(600)
			return tableOf(r, err)
		}},
		{"e14", "SEU scrubbing reliability", func() (*Table, error) {
			r, err := RunE14(500, 10)
			return tableOf(r, err)
		}},
		{"e15", "Multi-card scale-out", func() (*Table, error) {
			r, err := RunE15(800)
			return tableOf(r, err)
		}},
		{"e16", "Concurrent cluster throughput", func() (*Table, error) {
			r, err := RunE16(2000)
			return tableOf(r, err)
		}},
		{"e17", "Per-phase latency distributions", func() (*Table, error) {
			r, err := RunE17(1500)
			return tableOf(r, err)
		}},
		{"e18", "Sequential vs pipelined cold load", func() (*Table, error) {
			r, err := RunE18()
			return tableOf(r, err)
		}},
		{"e20", "On-fabric function chaining vs staged calls", func() (*Table, error) {
			r, err := RunE20(16, 2048)
			return tableOf(r, err)
		}},
		{"e23", "Network-path throughput (mux + cross-client batching)", func() (*Table, error) {
			r, err := RunE23(4000, 512)
			return tableOf(r, err)
		}},
	}
	sort.Slice(exps, func(i, j int) bool { return expNum(exps[i].ID) < expNum(exps[j].ID) })
	return exps
}

// expNum extracts the numeric suffix of an experiment id for ordering.
func expNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// ByID finds an experiment by id, as listed by All.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// tableOf extracts the Table field from any experiment result.
func tableOf(r interface{ table() *Table }, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return r.table(), nil
}

func (r *E1Result) table() *Table  { return &r.Table }
func (r *E2Result) table() *Table  { return &r.Table }
func (r *E3Result) table() *Table  { return &r.Table }
func (r *E4Result) table() *Table  { return &r.Table }
func (r *E5Result) table() *Table  { return &r.Table }
func (r *E6Result) table() *Table  { return &r.Table }
func (r *E7Result) table() *Table  { return &r.Table }
func (r *E8Result) table() *Table  { return &r.Table }
func (r *E9Result) table() *Table  { return &r.Table }
func (r *E10Result) table() *Table { return &r.Table }
func (r *E11Result) table() *Table { return &r.Table }
func (r *E12Result) table() *Table { return &r.Table }
func (r *E13Result) table() *Table { return &r.Table }
func (r *E14Result) table() *Table { return &r.Table }
func (r *E15Result) table() *Table { return &r.Table }
func (r *E16Result) table() *Table { return &r.Table }
func (r *E18Result) table() *Table { return &r.Table }
func (r *E20Result) table() *Table { return &r.Table }
func (r *E23Result) table() *Table { return &r.Table }
