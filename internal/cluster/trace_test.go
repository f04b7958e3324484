package cluster

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/trace"
)

// TestSubmitTracedStampsTimes proves the queue-wait/service-time split
// the server's trace spans are built from: a traced submission carries
// three wall stamps that tile its dispatcher residency — enqueue ≤
// service start ≤ service end — all set before Wait returns.
func TestSubmitTracedStampsTimes(t *testing.T) {
	for _, tc := range stageTable {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(1, ModeReplicate, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ref := trace.SpanRef{TraceID: 0xA11CE, SpanID: 0xB0B}
			p := cl.SubmitJob(Job{
				Stages: tc.of(algos.SHA256()), Inputs: [][]byte{{1, 2, 3, 4}},
				Refs: []trace.SpanRef{ref}, Wait: true,
			})[0]
			if _, _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			sub, start, done := p.TraceTimes()
			if sub == 0 || start == 0 || done == 0 {
				t.Fatalf("traced stamps missing: submit=%d start=%d done=%d", sub, start, done)
			}
			if !(sub <= start && start <= done) {
				t.Fatalf("stamps out of order: submit=%d start=%d done=%d", sub, start, done)
			}
			// Queue wait plus service time must tile the whole residency.
			if (start-sub)+(done-start) != done-sub {
				t.Fatal("queue+service does not tile the residency")
			}
		})
	}
}

// TestSubmitUntracedStampsNothing pins the passivity contract: without
// a trace ref the dispatcher takes no wall-clock stamps at all.
func TestSubmitUntracedStampsNothing(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := algos.CRC32()
	p := cl.Submit(f.ID(), []byte{1, 2, 3, 4})
	if _, _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if sub, start, done := p.TraceTimes(); sub != 0 || start != 0 || done != 0 {
		t.Fatalf("untraced submission stamped times: %d %d %d", sub, start, done)
	}
}

// TestTracedRunTagsCardLog proves the card side of the trace: the
// card-log events of a traced job's run carry the job's trace and span
// ids, attaching every phase record to the owning span tree.
func TestTracedRunTagsCardLog(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	log := &trace.Log{}
	cl.SetTrace(log)
	f := algos.CRC32()
	ref := trace.SpanRef{TraceID: 0xFACE, SpanID: 0xD00D}
	p := cl.SubmitJob(Job{
		Stages: []uint16{f.ID()}, Inputs: [][]byte{{1, 2, 3, 4}}, Refs: []trace.SpanRef{ref}, Wait: true,
	})[0]
	if _, _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, e := range log.Events() {
		if e.TraceID == ref.TraceID {
			if e.SpanID != ref.SpanID {
				t.Fatalf("event %q has trace id but span id %#x, want %#x", e.Kind, e.SpanID, ref.SpanID)
			}
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("no card-log events tagged with the request's trace id")
	}
	// A fresh untraced call must leave new events untagged.
	before := log.Len()
	q := cl.Submit(f.ID(), []byte{5, 6, 7, 8})
	if _, _, err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, e := range log.Events()[before:] {
		if e.TraceID != 0 || e.SpanID != 0 {
			t.Fatalf("untraced call produced tagged event %+v", e)
		}
	}
}
