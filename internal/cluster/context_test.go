package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/metrics"
)

func TestSubmitContextHappyPath(t *testing.T) {
	cl, err := New(2, ModeAffinity, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := algos.CRC32()
	in := []byte{1, 2, 3, 4}
	p := cl.SubmitContext(context.Background(), f.ID(), in, false)
	res, _, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Exec(in)
	if !bytes.Equal(res.Output, want) {
		t.Fatal("wrong output")
	}
}

func TestSubmitContextExpiredBeforeSubmit(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := cl.SubmitContext(ctx, algos.CRC32().ID(), []byte{1}, true)
	if _, _, err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// settled reports, without blocking, whether p has settled: its done
// channel holds the settlement token.
func settled(p *Pending) bool { return len(p.done) != 0 }

// TestSubmitContextQueueFull saturates a card's queue with the workers
// deliberately never started, so the non-blocking path must observe
// ErrQueueFull deterministically.
func TestSubmitContextQueueFull(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := smallCfg()
	cfg.Metrics = reg
	cl, err := NewWithOptions(1, ModeReplicate, cfg, Options{Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Burn the once so no worker drains the queue during the test.
	cl.startOnce.Do(func() {})
	fn := algos.CRC32().ID()
	for i := 0; i < 2; i++ {
		p := cl.SubmitContext(context.Background(), fn, []byte{1}, false)
		if settled(p) {
			t.Fatal("queued submission settled with no worker running")
		}
	}
	p := cl.SubmitContext(context.Background(), fn, []byte{1}, false)
	if _, _, err := p.Wait(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if n := reg.Counter("agile_cluster_rejected_total", metrics.L("card", "0")).Value(); n != 1 {
		t.Fatalf("rejected counter = %d, want 1", n)
	}
	// A blocking submit with a deadline must give up when the queue
	// never drains.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	p = cl.SubmitContext(ctx, fn, []byte{1}, true)
	if _, _, err := p.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocking err = %v, want DeadlineExceeded", err)
	}
	// Now let workers drain what's queued so Close terminates them.
	cl.startWorkers()
	cl.Close()
}

// TestWorkerSkipsExpiredJobs enqueues with workers stopped, expires the
// context, then starts the workers: the job must fail with the deadline
// error without executing.
func TestWorkerSkipsExpiredJobs(t *testing.T) {
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
			p := cl.SubmitJob(Job{
				Stages: tc.of(algos.SHA256()), Inputs: [][]byte{{1}}, Ctxs: []context.Context{ctx},
			})[0]
			cancel()
			cl.startWorkers()
			if _, _, err := p.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n := reg.Counter("agile_cluster_expired_total", metrics.L("card", "0")).Value(); n != 1 {
				t.Fatalf("expired counter = %d, want 1", n)
			}
			if got := cl.Stats().Total.Requests; got != 0 {
				t.Fatalf("expired job reached the card: %d requests", got)
			}
			cl.Close()
		})
	}
}

func TestSubmitAfterCloseReturnsErrStopped(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	fn := algos.CRC32().ID()
	if _, _, err := cl.Submit(fn, []byte{1}).Wait(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	p := cl.Submit(fn, []byte{1})
	if _, _, err := p.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestSentinelErrorsAreDistinct(t *testing.T) {
	for _, e := range []error{ErrQueueFull, ErrStopped, ErrUnknownFunction} {
		if e.Error() == "" {
			t.Fatal("empty sentinel message")
		}
	}
	cl, err := New(1, ModeReplicate, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Call(0xFFFF, []byte{1}); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown function err = %v", err)
	}
}
