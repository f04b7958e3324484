package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/replace"
	"agilefpga/internal/sim"
	"agilefpga/internal/workload"
)

// E3 — the Frame Replacement Policy experiment (paper §2.5). The device
// is sized so roughly four of the ten bank functions fit at once; request
// streams of each workload shape drive the card under every policy, with
// the clairvoyant Belady OPT as the upper bound. Reported per (workload,
// policy): hit rate, evictions, and mean request latency.
type E3Result struct {
	Table Table
	// HitRate[workload][policy]
	HitRate map[string]map[string]float64
	// MeanLatency[workload][policy]
	MeanLatency map[string]map[string]sim.Time
}

// E3Geometry holds ~4 of the 16 bank functions (the bank averages ≈9.4
// frames per function on 32-row columns).
var E3Geometry = fpga.Geometry{Rows: 32, Cols: 40}

// RunE3 executes the replacement-policy experiment with the given request
// count per stream.
func RunE3(requests int) (*E3Result, error) {
	if requests <= 0 {
		requests = 2000
	}
	var ids []uint16
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
	}
	res := &E3Result{
		Table: Table{
			Title:  fmt.Sprintf("E3  Frame Replacement Policy: hit rate / evictions / mean latency (%d requests)", requests),
			Header: []string{"workload", "policy", "hit rate", "evictions", "mean latency"},
		},
		HitRate:     make(map[string]map[string]float64),
		MeanLatency: make(map[string]map[string]sim.Time),
	}
	policies := append(replace.Names()[:4:4], "opt")
	for _, wname := range workload.Names() {
		res.HitRate[wname] = make(map[string]float64)
		res.MeanLatency[wname] = make(map[string]sim.Time)
		// One fixed trace per workload, shared by all policies (and
		// required by OPT's clairvoyance).
		gen, err := workload.New(wname, ids, 1234)
		if err != nil {
			return nil, err
		}
		trace := workload.Collect(gen, requests)
		for _, pname := range policies {
			var pol replace.Policy
			if pname == "opt" {
				pol = replace.NewOPT(trace)
			} else {
				pol, err = replace.New(pname, 99)
				if err != nil {
					return nil, err
				}
			}
			cp, err := core.New(core.Config{Geometry: E3Geometry, Policy: pol})
			if err != nil {
				return nil, err
			}
			if _, err := cp.InstallBank(); err != nil {
				return nil, err
			}
			var total sim.Time
			for i, fn := range trace {
				f, err := byID(fn)
				if err != nil {
					return nil, err
				}
				in := make([]byte, f.BlockBytes)
				in[0] = byte(i)
				call, err := cp.CallID(fn, in)
				if err != nil {
					return nil, fmt.Errorf("exp: E3 %s/%s request %d: %w", wname, pname, i, err)
				}
				total += call.Latency
			}
			st := cp.Stats()
			hr := float64(st.Hits) / float64(st.Requests)
			mean := sim.Time(uint64(total) / uint64(requests))
			res.HitRate[wname][pname] = hr
			res.MeanLatency[wname][pname] = mean
			res.Table.AddRow(wname, pname, fmt.Sprintf("%.3f", hr), st.Evictions, mean.String())
			if err := cp.Controller().CheckInvariants(); err != nil {
				return nil, err
			}
		}
	}
	res.Table.Caption = "device: " + E3Geometry.String() + " (≈4 of 16 functions resident); opt = clairvoyant Belady bound"
	return res, nil
}

func byID(fn uint16) (*algos.Function, error) {
	for _, f := range algos.Bank() {
		if f.ID() == fn {
			return f, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown function id %d", fn)
}
