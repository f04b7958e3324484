package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/metrics"
	"agilefpga/internal/trace"
)

// TestSubmitGroupMatchesIndividualCalls is the cross-client batching
// correctness bar: a group submitted as one queue entry returns, job
// for job, exactly the bytes the same inputs yield as independent
// blocking calls — and every child reports the one card the carrier
// was routed to.
func TestSubmitGroupMatchesIndividualCalls(t *testing.T) {
	for _, tc := range stageTable {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(2, ModeAffinity, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			stages := tc.of(algos.SHA256())
			inputs := make([][]byte, 9)
			for i := range inputs {
				inputs[i] = []byte{byte(i), 2, 3, byte(i * 3)}
			}
			pendings := cl.SubmitJob(Job{Stages: stages, Inputs: inputs})
			if len(pendings) != len(inputs) {
				t.Fatalf("got %d pendings for %d inputs", len(pendings), len(inputs))
			}
			firstCard := -1
			for i, p := range pendings {
				res, card, err := p.Wait()
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if want := hostRef(t, stages, inputs[i]); !bytes.Equal(res.Output, want) {
					t.Fatalf("job %d: output %x, want %x", i, res.Output, want)
				}
				if firstCard == -1 {
					firstCard = card
				} else if card != firstCard {
					t.Fatalf("job %d served by card %d, group routed to %d", i, card, firstCard)
				}
			}
			if err := cl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSubmitGroupServedAsOneBatch pins the mechanism, not just the
// outputs: with the workers parked, a whole group occupies one queue
// slot, and once served it counts as one coalesced run of len(group)
// jobs.
func TestSubmitGroupServedAsOneBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := smallCfg()
	cfg.Metrics = reg
	cl, err := NewWithOptions(1, ModeReplicate, cfg, Options{Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.startOnce.Do(func() {}) // park the workers
	inputs := [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}, {4, 4, 4, 4}}
	pendings := cl.SubmitJob(Job{Stages: []uint16{algos.IDCRC32}, Inputs: inputs})
	// Four jobs, one slot: a second group still fits the 2-deep queue.
	more := cl.SubmitJob(Job{Stages: []uint16{algos.IDCRC32}, Inputs: inputs[:2]})
	for _, p := range append(pendings, more...) {
		if settled(p) {
			t.Fatal("group settled with no worker running")
		}
	}
	cl.startWorkers()
	for i, p := range append(pendings, more...) {
		if _, _, err := p.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	card := metrics.L("card", "0")
	if n := reg.Counter("agile_cluster_coalesced_jobs_total", card).Value(); n < 4 {
		t.Fatalf("coalesced jobs = %d, want >= 4 (the first group batches)", n)
	}
	if n := reg.Counter("agile_cluster_submitted_total", card).Value(); n != 6 {
		t.Fatalf("submitted counter = %d, want 6 (counts jobs, not carriers)", n)
	}
	cl.Close()
}

// TestSubmitGroupExpiredChildFailsAlone: one child's context expires in
// the queue; it must fail with the context error while its siblings
// are served normally.
func TestSubmitGroupExpiredChildFailsAlone(t *testing.T) {
	for _, tc := range stageTable {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg := smallCfg()
			cfg.Metrics = reg
			cl, err := NewWithOptions(1, ModeReplicate, cfg, Options{Queue: 4})
			if err != nil {
				t.Fatal(err)
			}
			cl.startOnce.Do(func() {})
			ctx, cancel := context.WithCancel(context.Background())
			ctxs := []context.Context{nil, ctx, nil}
			stages := tc.of(algos.SHA256())
			inputs := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
			pendings := cl.SubmitJob(Job{Stages: stages, Inputs: inputs, Ctxs: ctxs})
			cancel()
			cl.startWorkers()
			if _, _, err := pendings[1].Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("expired child err = %v, want context.Canceled", err)
			}
			for _, i := range []int{0, 2} {
				res, _, err := pendings[i].Wait()
				if err != nil {
					t.Fatalf("live child %d: %v", i, err)
				}
				if !bytes.Equal(res.Output, hostRef(t, stages, inputs[i])) {
					t.Fatalf("live child %d: wrong output", i)
				}
			}
			if n := reg.Counter("agile_cluster_expired_total", metrics.L("card", "0")).Value(); n != 1 {
				t.Fatalf("expired counter = %d, want 1", n)
			}
			cl.Close()
		})
	}
}

// TestSubmitJobBadInputFailsAlone: an input the card could never stage
// is a property of that one request. It must fail by itself, with
// core.ErrInputTooLarge, at submission — whether it arrived inside a
// group or as a neighbour the worker would have coalesced — and must
// never cost the valid requests around it their run.
func TestSubmitJobBadInputFailsAlone(t *testing.T) {
	cl, err := NewWithOptions(1, ModeReplicate, smallCfg(), Options{Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	cl.startOnce.Do(func() {}) // park the workers so the singles below coalesce
	stages := []uint16{algos.IDCRC32}
	huge := make([]byte, 40*1024) // legal on the wire, over the 32 KiB staging window
	inputs := [][]byte{{1, 2, 3, 4}, huge, {9, 10, 11, 12}}
	pendings := cl.SubmitJob(Job{Stages: stages, Inputs: inputs})
	for _, in := range inputs {
		pendings = append(pendings, cl.SubmitJob(Job{Stages: stages, Inputs: [][]byte{in}})[0])
	}
	cl.startWorkers()
	for i, p := range pendings {
		res, _, err := p.Wait()
		if i%3 == 1 {
			if !errors.Is(err, core.ErrInputTooLarge) {
				t.Fatalf("oversized job %d: err = %v, want ErrInputTooLarge", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid job %d failed beside an oversized one: %v", i, err)
		}
		if !bytes.Equal(res.Output, hostRef(t, stages, inputs[i%3])) {
			t.Fatalf("valid job %d: wrong output", i)
		}
	}
	if got := cl.Stats().Total.Requests; got != 4 {
		t.Fatalf("card served %d requests, want the 4 valid ones", got)
	}
	cl.Close()
}

// TestSubmitJobOversizeOutputFailsAlone is TestSubmitJobBadInputFailsAlone
// for an input that fits the staging window while an output does not:
// rs255 turns each 223-byte block into a 255-byte codeword, so 30 000 B
// in is 34 425 B out, over the 32 KiB output window; through two rs255
// stages, 25 000 B in fits the first output (28 815 B) but not the
// second (33 150 B). The submission checks every stage's padded output,
// so the oversize item fails alone, with core.ErrInputTooLarge, instead
// of failing on the card with every item coalesced into its run.
func TestSubmitJobOversizeOutputFailsAlone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stages []uint16
		big    int
	}{
		{"one stage", []uint16{algos.IDRS255}, 30000},
		{"second stage of a chain", []uint16{algos.IDRS255, algos.IDRS255}, 25000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewWithOptions(1, ModeReplicate, smallCfg(), Options{Queue: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			cl.startOnce.Do(func() {}) // park the workers so the singles below coalesce
			small := bytes.Repeat([]byte{0x5a, 0x33}, 150)
			inputs := [][]byte{small, make([]byte, tc.big), small[:223]}
			pendings := cl.SubmitJob(Job{Stages: tc.stages, Inputs: inputs})
			for _, in := range inputs {
				pendings = append(pendings, cl.SubmitJob(Job{Stages: tc.stages, Inputs: [][]byte{in}})[0])
			}
			cl.startWorkers()
			for i, p := range pendings {
				res, _, err := p.Wait()
				if i%3 == 1 {
					if !errors.Is(err, core.ErrInputTooLarge) {
						t.Fatalf("oversize job %d: err = %v, want ErrInputTooLarge", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("valid job %d failed beside an oversize one: %v", i, err)
				}
				if !bytes.Equal(res.Output, hostRef(t, tc.stages, inputs[i%3])) {
					t.Fatalf("valid job %d: wrong output", i)
				}
			}
			if got, want := cl.Stats().Total.Errors, uint64(0); got != want {
				t.Fatalf("card reported %d errors, want %d", got, want)
			}
		})
	}
}

// TestSubmitGroupErrorPaths: unknown functions fail every child with
// the routing error; an empty group is a no-op; a stopped cluster
// fails the group with ErrStopped.
func TestSubmitGroupErrorPaths(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cl.SubmitJob(Job{Stages: []uint16{0xFFFF}, Inputs: [][]byte{{1}, {2}}}) {
		if _, _, err := p.Wait(); !errors.Is(err, ErrUnknownFunction) {
			t.Fatalf("err = %v, want ErrUnknownFunction", err)
		}
	}
	if got := cl.SubmitJob(Job{Stages: []uint16{algos.IDCRC32}}); len(got) != 0 {
		t.Fatalf("empty group returned %d pendings", len(got))
	}
	cl.Close()
	for _, p := range cl.SubmitJob(Job{Stages: []uint16{algos.IDCRC32}, Inputs: [][]byte{{1}}}) {
		if _, _, err := p.Wait(); !errors.Is(err, ErrStopped) {
			t.Fatalf("err after close = %v, want ErrStopped", err)
		}
	}
}

// TestTracedGroupStampsOnlyTracedMembers: a run with a traced member
// reads the wall clock, and only that member keeps the stamps; an
// untraced member of the same run reports all three as zero.
func TestTracedGroupStampsOnlyTracedMembers(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := trace.SpanRef{TraceID: 0xA11CE, SpanID: 0xB0B}
	ps := cl.SubmitJob(Job{
		Stages: []uint16{algos.IDCRC32}, Inputs: [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Refs: []trace.SpanRef{ref}, Wait: true,
	})
	for _, p := range ps {
		if _, _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if sub, start, done := ps[0].TraceTimes(); sub == 0 || start == 0 || done == 0 {
		t.Fatalf("traced member's stamps missing: %d %d %d", sub, start, done)
	}
	if sub, start, done := ps[1].TraceTimes(); sub != 0 || start != 0 || done != 0 {
		t.Fatalf("untraced member stamped times: %d %d %d", sub, start, done)
	}
}
