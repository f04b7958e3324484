package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sched"
	"agilefpga/internal/sim"
	"agilefpga/internal/workload"
)

// E13 — host-side scheduling. The paper's host "issues instructions to
// the microcontroller"; in what order is the host's choice, and because
// swapping functions costs hundreds of microseconds, the order matters
// enormously. A mixed Zipf job queue drains through three schedulers:
// fifo (fair, thrashing), sticky (minimal reconfigurations, unbounded
// overtaking), and window-16 (bounded unfairness). Reported: total
// completion time, reconfigurations, hit rate, and the worst overtaking
// any job suffered.
type E13Result struct {
	Table Table
	// TotalTime and MaxDisplacement per scheduler.
	TotalTime       map[string]sim.Time
	MaxDisplacement map[string]int
	HitRate         map[string]float64
}

// RunE13 executes the scheduling experiment over `jobCount` queued jobs.
func RunE13(jobCount int) (*E13Result, error) {
	if jobCount <= 0 {
		jobCount = 600
	}
	var ids []uint16
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
	}
	res := &E13Result{
		Table: Table{
			Title: fmt.Sprintf("E13  Host-side job scheduling (%d queued jobs, Zipf mix)", jobCount),
			Header: []string{"scheduler", "total time", "hit rate", "evictions",
				"frames loaded", "max overtaking"},
		},
		TotalTime:       make(map[string]sim.Time),
		MaxDisplacement: make(map[string]int),
		HitRate:         make(map[string]float64),
	}
	// One fixed job queue for all schedulers.
	gen, err := workload.NewZipf(ids, 1.1, 31337)
	if err != nil {
		return nil, err
	}
	trace := workload.Collect(gen, jobCount)

	for _, sname := range sched.Names() {
		picker, err := sched.New(sname)
		if err != nil {
			return nil, err
		}
		cp, err := core.New(core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}})
		if err != nil {
			return nil, err
		}
		if _, err := cp.InstallBank(); err != nil {
			return nil, err
		}
		jobs := make([]sched.Job, jobCount)
		for i, fn := range trace {
			f, err := byID(fn)
			if err != nil {
				return nil, err
			}
			in := make([]byte, f.BlockBytes)
			in[0] = byte(i)
			jobs[i] = sched.Job{Fn: fn, Input: in, Seq: i}
		}
		var total sim.Time
		serve := func(j sched.Job) error {
			call, err := cp.CallID(j.Fn, j.Input)
			if err != nil {
				return err
			}
			total += call.Latency
			return nil
		}
		_, maxDisp, err := sched.Run(jobs, picker, cp.Resident, serve)
		if err != nil {
			return nil, fmt.Errorf("exp: E13 %s: %w", sname, err)
		}
		st := cp.Stats()
		hr := float64(st.Hits) / float64(st.Requests)
		res.TotalTime[sname] = total
		res.MaxDisplacement[sname] = maxDisp
		res.HitRate[sname] = hr
		res.Table.AddRow(sname, total.String(), fmt.Sprintf("%.3f", hr),
			st.Evictions, st.FramesLoaded, maxDisp)
		if err := cp.Controller().CheckInvariants(); err != nil {
			return nil, err
		}
	}
	res.Table.Caption = "same queue, same card (LRU, 40 frames); overtaking = worst (served position − submission position)"
	return res, nil
}
