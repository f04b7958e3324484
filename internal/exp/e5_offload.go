package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// E5 — offload speedup (paper §1: "reduce the computational overload on
// the host"). Per bank function over a large payload: host-software time,
// hot-card kernel time, the on-card data movement the streamed call
// leaves exposed, and the full end-to-end hot latency including PCI. Two speedups fall out: the kernel
// speedup the fabric delivers, and the end-to-end speedup after the
// 32-bit/33 MHz PCI round trip takes its share — compute-dense kernels
// survive the bus, streaming kernels do not.
type E5Result struct {
	Table Table
	// KernelSpeedup and E2ESpeedup per function name.
	KernelSpeedup map[string]float64
	E2ESpeedup    map[string]float64
}

// RunE5 executes the offload experiment with payloadBytes per function.
func RunE5(payloadBytes int) (*E5Result, error) {
	if payloadBytes <= 0 {
		payloadBytes = 12 * 1024
	}
	cp, err := core.New(core.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := cp.InstallBank(); err != nil {
		return nil, err
	}
	res := &E5Result{
		Table: Table{
			Title: fmt.Sprintf("E5  Offload speedup per function (hot card, ~%d KiB payloads)", payloadBytes/1024),
			Header: []string{"function", "host", "fabric exec", "data unhidden", "card e2e",
				"kernel speedup", "e2e speedup"},
		},
		KernelSpeedup: make(map[string]float64),
		E2ESpeedup:    make(map[string]float64),
	}
	for _, f := range algos.Bank() {
		blocks := payloadBytes / f.BlockBytes
		if blocks == 0 {
			blocks = 1
		}
		in := make([]byte, blocks*f.BlockBytes)
		for i := range in {
			in[i] = byte(i*2654435761 + int(f.ID()))
		}
		// Warm the fabric.
		if _, err := cp.Call(f.Name(), in[:f.BlockBytes]); err != nil {
			return nil, fmt.Errorf("exp: E5 warm %s: %w", f.Name(), err)
		}
		call, err := cp.Call(f.Name(), in)
		if err != nil {
			return nil, fmt.Errorf("exp: E5 %s: %w", f.Name(), err)
		}
		if !call.Hit {
			return nil, fmt.Errorf("exp: E5 %s: expected a hot call", f.Name())
		}
		_, hostTime, err := cp.RunHost(f.Name(), in)
		if err != nil {
			return nil, err
		}
		kernel := call.Breakdown.Get(sim.PhaseExec)
		// The data modules' time not hidden behind the fabric: the first
		// granule in, the last granule out, and any stall they cause.
		data := call.Breakdown.Get(sim.PhaseDataIn) + call.Breakdown.Get(sim.PhaseDataOut) +
			call.Breakdown.Get(sim.PhasePipeStall)
		ks := float64(hostTime) / float64(kernel)
		es := float64(hostTime) / float64(call.Latency)
		res.KernelSpeedup[f.Name()] = ks
		res.E2ESpeedup[f.Name()] = es
		res.Table.AddRow(f.Name(), hostTime.String(), kernel.String(), data.String(),
			call.Latency.String(), fmt.Sprintf("%.1fx", ks), fmt.Sprintf("%.2fx", es))
	}
	res.Table.Caption = "kernel speedup = host / fabric exec; data unhidden = data-module time the streamed call does not overlap with exec; e2e adds it and the 32-bit/33 MHz PCI round trip"
	return res, nil
}
