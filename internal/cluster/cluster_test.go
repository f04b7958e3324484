package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/replace"
	"agilefpga/internal/sched"
)

func smallCfg() core.Config {
	return core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}}
}

// stageTable is what the dispatcher tests run over: a plain call and a
// chain are one job shape, with one stage or several. of builds the
// stage list under test around a bank function.
var stageTable = []struct {
	name string
	of   func(f *algos.Function) []uint16
}{
	{"1-stage", func(f *algos.Function) []uint16 { return []uint16{f.ID()} }},
	{"2-stage", func(f *algos.Function) []uint16 { return []uint16{f.ID(), algos.IDCRC32} }},
}

// hostRef runs stages over in on the host reference implementations.
func hostRef(t *testing.T, stages []uint16, in []byte) []byte {
	t.Helper()
	for _, fn := range stages {
		var err error
		for _, f := range algos.Bank() {
			if f.ID() == fn {
				in, err = f.Exec(in)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, ModeReplicate, smallCfg()); err == nil {
		t.Error("zero cards accepted")
	}
	if _, err := New(2, "sharded", smallCfg()); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestReplicateRoundRobin(t *testing.T) {
	cl, err := New(3, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Cards() != 3 || cl.Mode() != ModeReplicate {
		t.Fatal("wrong shape")
	}
	f := algos.CRC32()
	in := []byte{1, 2, 3, 4}
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		res, card, err := cl.Call(f.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := f.Exec(in)
		if !bytes.Equal(res.Output, want) {
			t.Fatal("wrong output")
		}
		seen[card]++
	}
	for c := 0; c < 3; c++ {
		if seen[c] != 3 {
			t.Errorf("card %d served %d of 9", c, seen[c])
		}
	}
	st := cl.Stats()
	if st.Total.Requests != 9 {
		t.Errorf("aggregate requests = %d", st.Total.Requests)
	}
	// Each card paid its own cold miss.
	if st.Total.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Total.Misses)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartitionPinsFunctions(t *testing.T) {
	cl, err := New(4, ModePartition, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range algos.Bank() {
		home := cl.Home(f.ID())
		if home < 0 || home >= 4 {
			t.Fatalf("%s homed at %d", f.Name(), home)
		}
		for i := 0; i < 3; i++ {
			in := make([]byte, f.BlockBytes)
			in[0] = byte(i)
			res, card, err := cl.Call(f.ID(), in)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if card != home {
				t.Fatalf("%s served by card %d, homed at %d", f.Name(), card, home)
			}
			want, _ := f.Exec(in)
			if !bytes.Equal(res.Output, want) {
				t.Fatalf("%s wrong output", f.Name())
			}
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartitionBalancesLoad(t *testing.T) {
	cl, err := New(4, ModePartition, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	geom := fpga.Geometry{Rows: 32, Cols: 40}
	load := make([]int, 4)
	for _, f := range algos.Bank() {
		load[cl.Home(f.ID())] += geom.FramesForLUTs(f.LUTs)
	}
	min, max := load[0], load[0]
	for _, l := range load {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// Greedy balancing: the spread stays within the largest single
	// function's demand (19 frames).
	if max-min > 19 {
		t.Errorf("load spread %v too wide", load)
	}
}

func TestPartitionEliminatesThrashAtScale(t *testing.T) {
	// Four 40-frame cards hold the 154-frame bank partitioned: after
	// warmup, zero evictions. One card replicating thrashes hard.
	run := func(n int, mode string) Stats {
		cl, err := New(n, mode, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			for _, f := range algos.Bank() {
				in := make([]byte, f.BlockBytes)
				in[0] = byte(round)
				if _, _, err := cl.Call(f.ID(), in); err != nil {
					t.Fatal(err)
				}
			}
		}
		return cl.Stats()
	}
	part := run(4, ModePartition)
	single := run(1, ModeReplicate)
	if part.Total.Evictions != 0 {
		t.Errorf("partitioned cluster evicted %d times", part.Total.Evictions)
	}
	if part.HitRate <= single.HitRate {
		t.Errorf("partition hit rate %.3f not above single card %.3f", part.HitRate, single.HitRate)
	}
	if single.Total.Evictions == 0 {
		t.Error("single card should thrash on the full bank")
	}
}

func TestUnknownFunction(t *testing.T) {
	cl, err := New(2, ModePartition, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Call(9999, []byte{1}); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("err = %v", err)
	}
	if cl.Home(9999) != -2 {
		t.Error("unknown home")
	}
}

func TestReplicateSingleCard(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := algos.CRC32()
	in := []byte{9, 8, 7, 6}
	want, _ := f.Exec(in)
	for i := 0; i < 5; i++ {
		res, card, err := cl.Call(f.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		if card != 0 {
			t.Fatalf("single card cluster served from card %d", card)
		}
		if !bytes.Equal(res.Output, want) {
			t.Fatal("wrong output")
		}
	}
	p := cl.Submit(f.ID(), in)
	res, card, err := p.Wait()
	if err != nil || card != 0 || !bytes.Equal(res.Output, want) {
		t.Fatalf("async single card: card %d err %v", card, err)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartitionMoreCardsThanFunctions(t *testing.T) {
	// More cards than bank functions: some cards stay empty, the rest
	// carry one function each, and every call still lands on its home.
	n := algos.BankSize + 4
	cl, err := New(n, ModePartition, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	used := map[int]bool{}
	for _, f := range algos.Bank() {
		home := cl.Home(f.ID())
		if home < 0 || home >= n {
			t.Fatalf("%s homed at %d", f.Name(), home)
		}
		used[home] = true
		in := make([]byte, f.BlockBytes)
		in[0] = 1
		res, card, err := cl.Call(f.ID(), in)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if card != home {
			t.Fatalf("%s served by %d, homed at %d", f.Name(), card, home)
		}
		want, _ := f.Exec(in)
		if !bytes.Equal(res.Output, want) {
			t.Fatalf("%s wrong output", f.Name())
		}
	}
	if len(used) != algos.BankSize {
		t.Errorf("%d cards used, want %d (one per function)", len(used), algos.BankSize)
	}
	st := cl.Stats()
	if len(st.PerCardRequests) != n {
		t.Fatalf("PerCardRequests has %d entries, want %d", len(st.PerCardRequests), n)
	}
	empty := 0
	for _, r := range st.PerCardRequests {
		if r == 0 {
			empty++
		}
	}
	if empty != n-algos.BankSize {
		t.Errorf("%d empty cards, want %d", empty, n-algos.BankSize)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAsyncUnknownFunction(t *testing.T) {
	cl, err := New(2, ModeAffinity, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Submit(9999, []byte{1})
	if _, card, err := p.Wait(); !errors.Is(err, ErrUnknownFunction) || card != -1 {
		t.Errorf("Wait = card %d, err %v; want ErrUnknownFunction, card -1", card, err)
	}
	// Serve surfaces the same error after settling every job.
	f := algos.CRC32()
	jobs := []sched.Job{
		{Fn: f.ID(), Input: []byte{1, 2, 3, 4}, Seq: 0},
		{Fn: 9999, Input: []byte{1}, Seq: 1},
	}
	res, err := cl.Serve(jobs, 2)
	if !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("Serve err = %v", err)
	}
	want, _ := f.Exec(jobs[0].Input)
	if !bytes.Equal(res.Outputs[0], want) {
		t.Error("good job did not complete alongside the failing one")
	}
}

func TestAffinityPinsAndCoalesces(t *testing.T) {
	for _, tc := range stageTable {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(4, ModeAffinity, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// Every stage list must route consistently to one card.
			pins := map[uint16]int{}
			for round := 0; round < 3; round++ {
				for _, f := range algos.Bank() {
					stages := tc.of(f)
					in := make([]byte, f.BlockBytes)
					in[0] = byte(round + 1)
					res, card, err := cl.CallChain(stages, in)
					if err != nil {
						t.Fatalf("%s: %v", f.Name(), err)
					}
					if !bytes.Equal(res.Output, hostRef(t, stages, in)) {
						t.Fatalf("%s wrong output", f.Name())
					}
					if prev, ok := pins[f.ID()]; ok && prev != card {
						t.Fatalf("%s moved from card %d to %d", f.Name(), prev, card)
					}
					pins[f.ID()] = card
					if aff := cl.Affinity(stages...); aff != card {
						t.Fatalf("Affinity(%s) = %d, served by %d", f.Name(), aff, card)
					}
				}
			}
			// Pins spread across all cards.
			seen := map[int]bool{}
			for _, c := range pins {
				seen[c] = true
			}
			if len(seen) != 4 {
				t.Errorf("pins landed on %d of 4 cards", len(seen))
			}
			// A burst of same-stage-list jobs coalesces into batches and
			// stays hot.
			stages := tc.of(algos.SHA256())
			in := make([]byte, algos.SHA256().BlockBytes)
			in[0] = 7
			want := hostRef(t, stages, in)
			before := cl.Stats().Total.Misses
			burst := make([]*Pending, 64)
			for i := range burst {
				burst[i] = cl.SubmitJob(Job{Stages: stages, Inputs: [][]byte{in}, Wait: true})[0]
			}
			hits := 0
			for i, p := range burst {
				res, _, err := p.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.Output, want) {
					t.Fatalf("job %d wrong output", i)
				}
				if res.Hit {
					hits++
				}
			}
			// At most the first job of the burst pays a reconfiguration
			// per stage (a stage may have been evicted by the warmup
			// rounds); every other job must ride the resident
			// configuration.
			if got := cl.Stats().Total.Misses; got > before+uint64(len(stages)) {
				t.Errorf("same-stage-list burst paid %d reconfigurations", got-before)
			}
			if hits < len(burst)-1 {
				t.Errorf("burst hits = %d, want >= %d", hits, len(burst)-1)
			}
			if err := cl.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestServeMixedWorkload(t *testing.T) {
	cl, err := New(3, ModeAffinity, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	bank := algos.Bank()
	jobs := make([]sched.Job, 120)
	wants := make([][]byte, len(jobs))
	for i := range jobs {
		f := bank[i%len(bank)]
		in := make([]byte, f.BlockBytes)
		in[0] = byte(i)
		jobs[i] = sched.Job{Fn: f.ID(), Input: in, Seq: i}
		wants[i], _ = f.Exec(in)
	}
	res, err := cl.Serve(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !bytes.Equal(res.Outputs[i], wants[i]) {
			t.Fatalf("job %d wrong output", i)
		}
	}
	st := cl.Stats()
	if st.Total.Requests != uint64(len(jobs)) {
		t.Errorf("requests = %d, want %d", st.Total.Requests, len(jobs))
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestClusterConcurrentStress hammers a 4-card cluster from 8 goroutines
// mixing sync Calls and async Submits, then checks every card's mini-OS
// invariants. Run under -race this is the dispatcher's safety proof.
func TestClusterConcurrentStress(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cl, err := New(4, mode, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			bank := algos.Bank()
			const goroutines, perG = 8, 25
			errs := make(chan error, goroutines)
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						f := bank[(g*perG+i*7)%len(bank)]
						in := make([]byte, f.BlockBytes)
						in[0] = byte(g)
						in[1] = byte(i)
						want, _ := f.Exec(in)
						var out []byte
						if i%2 == 0 {
							res, _, err := cl.Call(f.ID(), in)
							if err != nil {
								errs <- err
								return
							}
							out = res.Output
						} else {
							res, _, err := cl.Submit(f.ID(), in).Wait()
							if err != nil {
								errs <- err
								return
							}
							out = res.Output
						}
						if !bytes.Equal(out, want) {
							errs <- fmt.Errorf("%s: wrong output under contention", f.Name())
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := cl.Stats()
			if st.Total.Requests != goroutines*perG {
				t.Errorf("requests = %d, want %d", st.Total.Requests, goroutines*perG)
			}
			if err := cl.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCloseIdempotent(t *testing.T) {
	cl, err := New(2, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	f := algos.CRC32()
	if _, _, err := cl.Submit(f.ID(), []byte{1, 2, 3, 4}).Wait(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	// Synchronous calls still work after Close.
	if _, _, err := cl.Call(f.ID(), []byte{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyNotSharedAcrossCards: one Config builds every card, and a
// replacement policy holds one card's residency, so each card must get
// its own. Two small cards thrash through the bank under FIFO.
func TestPolicyNotSharedAcrossCards(t *testing.T) {
	cfg := core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 24}, Policy: replace.NewFIFO()}
	cl, err := New(2, ModeReplicate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cl.cards[0].Controller().Config().Policy == cl.cards[1].Controller().Config().Policy {
		t.Fatal("both cards replace frames through one policy")
	}
	in := make([]byte, 64)
	for round := 0; round < 2; round++ {
		for _, f := range algos.Bank() {
			if _, _, err := cl.Call(f.ID(), in); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if err := cl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, cp := range cl.cards {
		if got := cp.Controller().PolicyName(); got != "fifo" {
			t.Errorf("card %d replaces with %q, want fifo", i, got)
		}
	}
}
