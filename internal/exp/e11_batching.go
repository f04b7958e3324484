package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// E11 — batched pipelined calls. The synchronous one-request-at-a-time
// protocol of E5/E6 serialises the PCI bus against the card; a
// double-buffered DMA pipeline overlaps them. Per function, for a batch
// of items: host software time, sequential card time (every item charged
// whole-item, the serial model), batched card time, and the resulting
// speedups. The batch rescues kernels whose card time
// exceeds their bus time (sha256) but cannot rescue truly bus-bound ones
// (aes128 — the half-duplex bus is the floor).
type E11Result struct {
	Table Table
	// BatchSpeedup[fn] = host / batched; SeqSpeedup[fn] = host / sequential.
	BatchSpeedup map[string]float64
	SeqSpeedup   map[string]float64
}

// RunE11 executes the batching experiment with `items` payloads of
// itemBytes each per function.
func RunE11(items, itemBytes int) (*E11Result, error) {
	if items <= 0 {
		items = 32
	}
	if itemBytes <= 0 {
		itemBytes = 4096
	}
	res := &E11Result{
		Table: Table{
			Title: fmt.Sprintf("E11  Batched pipelined calls (%d items × %d B)", items, itemBytes),
			Header: []string{"function", "host", "card sequential", "card batched",
				"seq speedup", "batch speedup"},
		},
		BatchSpeedup: make(map[string]float64),
		SeqSpeedup:   make(map[string]float64),
	}
	for _, fname := range []string{"modexp64", "viterbi", "tdes", "sha256", "aes128", "crc32"} {
		f, err := algos.ByName(fname)
		if err != nil {
			return nil, err
		}
		cp, err := core.New(core.Config{RAMBytes: 1024 * 1024})
		if err != nil {
			return nil, err
		}
		if _, err := cp.Install(f); err != nil {
			return nil, err
		}
		n := itemBytes / f.BlockBytes
		if n == 0 {
			n = 1
		}
		inputs := make([][]byte, items)
		for i := range inputs {
			inputs[i] = make([]byte, n*f.BlockBytes)
			for j := range inputs[i] {
				inputs[i][j] = byte(i*31 + j)
			}
		}
		// Warm the fabric so the comparison is steady-state.
		if _, err := cp.Call(fname, inputs[0]); err != nil {
			return nil, fmt.Errorf("exp: E11 warm %s: %w", fname, err)
		}
		batch, err := cp.CallBatch(fname, inputs)
		if err != nil {
			return nil, fmt.Errorf("exp: E11 %s: %w", fname, err)
		}
		var host sim.Time
		for _, in := range inputs {
			_, t, err := cp.RunHost(fname, in)
			if err != nil {
				return nil, err
			}
			host += t
		}
		ss := float64(host) / float64(batch.SequentialLatency)
		bs := float64(host) / float64(batch.Latency)
		res.SeqSpeedup[fname] = ss
		res.BatchSpeedup[fname] = bs
		res.Table.AddRow(fname, host.String(), batch.SequentialLatency.String(),
			batch.Latency.String(), fmt.Sprintf("%.2fx", ss), fmt.Sprintf("%.2fx", bs))
	}
	res.Table.Caption = "batched = double-buffered DMA (half-duplex bus ‖ card); sequential = one item at a time, each charged whole-item (data-in, exec, data-out back to back)"
	return res, nil
}
