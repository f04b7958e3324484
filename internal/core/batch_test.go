package core

import (
	"bytes"
	"errors"
	"testing"

	"agilefpga/internal/algos"
)

func TestCallBatchMatchesSequential(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.SHA256()); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = make([]byte, 512)
		for j := range inputs[i] {
			inputs[i][j] = byte(i*37 + j)
		}
	}
	batch, err := cp.CallBatch("sha256", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Outputs) != len(inputs) {
		t.Fatalf("outputs = %d", len(batch.Outputs))
	}
	for i, in := range inputs {
		want, _ := algos.SHA256().Exec(in)
		if !bytes.Equal(batch.Outputs[i], want) {
			t.Fatalf("item %d output mismatch", i)
		}
	}
	// First item misses (configuration), the rest hit.
	if batch.Hits != len(inputs)-1 {
		t.Errorf("hits = %d, want %d", batch.Hits, len(inputs)-1)
	}
	// Pipelining can only help.
	if batch.Latency > batch.SequentialLatency {
		t.Errorf("batched (%v) slower than sequential (%v)", batch.Latency, batch.SequentialLatency)
	}
	if batch.Latency == 0 {
		t.Error("zero batch latency")
	}
}

func TestCallBatchOverlapWins(t *testing.T) {
	// With enough items, pipelined latency must be meaningfully below
	// the sequential sum: at least the smaller of total-bus and
	// total-card time is hidden.
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.SHA256()); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 32)
	for i := range inputs {
		inputs[i] = make([]byte, 4096)
		for j := range inputs[i] {
			inputs[i][j] = byte(i + j)
		}
	}
	if _, err := cp.Call("sha256", inputs[0]); err != nil { // warm
		t.Fatal(err)
	}
	batch, err := cp.CallBatch("sha256", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(batch.Latency) > 0.85*float64(batch.SequentialLatency) {
		t.Errorf("overlap too weak: %v vs %v", batch.Latency, batch.SequentialLatency)
	}
}

func TestCallBatchValidation(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.CRC32()); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CallBatch("crc32", nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := cp.CallBatch("crc32", [][]byte{{1, 2}, nil}); err == nil {
		t.Error("empty item accepted")
	}
	if _, err := cp.CallBatch("nope", [][]byte{{1}}); err == nil {
		t.Error("unknown function accepted")
	}
	huge := make([]byte, cp.Controller().InWindowBytes()+1)
	if _, err := cp.CallBatch("crc32", [][]byte{huge}); err == nil {
		t.Error("oversized item accepted")
	}
	if _, err := cp.CallBatch("crc32", [][]byte{{1}, {2}, {3}, huge}); !errors.Is(err, ErrInputTooLarge) {
		t.Errorf("oversized last item: err = %v, want ErrInputTooLarge", err)
	}
	// A job is validated whole, before the first bus write: a bad item
	// anywhere must not have run — and thrown away — the items before it.
	if st := cp.Stats(); st.Requests != 0 || st.Phases.Total() != 0 {
		t.Errorf("rejected batches reached the card: %d requests, %v card time", st.Requests, st.Phases.Total())
	}
}

func TestCallBatchStateConsistency(t *testing.T) {
	// A batch leaves the card in exactly the state individual calls
	// would: resident function, clean invariants, coherent stats.
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.DES()); err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{[]byte("block001"), []byte("block002"), []byte("block003")}
	if _, err := cp.CallBatch("des", inputs); err != nil {
		t.Fatal(err)
	}
	st := cp.Stats()
	if st.Requests != 3 || st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !cp.Controller().Resident(algos.IDDES) {
		t.Error("function not resident after batch")
	}
	if err := cp.Controller().CheckInvariants(); err != nil {
		t.Error(err)
	}
}
