package cluster

import (
	"slices"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sched"
	"agilefpga/internal/trace"
)

// clusterJobs builds a mixed job list touching several functions, sized
// to force evictions and (with prefetch on) prefetcher activity.
func clusterJobs(t *testing.T, n int) []sched.Job {
	t.Helper()
	bank := algos.Bank()
	jobs := make([]sched.Job, n)
	for i := range jobs {
		f := bank[i%len(bank)]
		in := make([]byte, f.BlockBytes)
		in[0], in[1] = byte(i), byte(i>>8)
		jobs[i] = sched.Job{Fn: f.ID(), Input: in, Seq: i}
	}
	return jobs
}

// TestStatsAggregatesEveryField drives a cluster hard enough to make
// most counters non-zero, then checks Stats().Total equals the field-
// by-field sum over the cards — including the fields a summary is most
// tempted to drop (errors, prefetcher, scrubber, placements).
func TestStatsAggregatesEveryField(t *testing.T) {
	cfg := core.Config{
		Geometry: fpga.Geometry{Rows: 32, Cols: 40},
		Prefetch: true,
	}
	cl, err := New(2, ModeReplicate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range clusterJobs(t, 120) {
		if _, _, err := cl.Call(j.Fn, j.Input); err != nil {
			t.Fatal(err)
		}
	}
	// A scrub pass per card gives ScrubTime and FramesChecked weight.
	for _, cp := range cl.cards {
		if _, err := cp.Controller().Scrub(); err != nil {
			t.Fatal(err)
		}
	}

	var want mcu.Stats
	for _, cp := range cl.cards {
		st := cp.Stats()
		want.Requests += st.Requests
		want.Hits += st.Hits
		want.Misses += st.Misses
		want.Evictions += st.Evictions
		want.FramesLoaded += st.FramesLoaded
		want.RawConfigBytes += st.RawConfigBytes
		want.CompConfigBytes += st.CompConfigBytes
		want.ContigPlacements += st.ContigPlacements
		want.ScatterPlacements += st.ScatterPlacements
		want.FramesSkipped += st.FramesSkipped
		want.Prefetches += st.Prefetches
		want.PrefetchHits += st.PrefetchHits
		want.PrefetchTime += st.PrefetchTime
		want.DecompCacheHits += st.DecompCacheHits
		want.DecompCacheBytes += st.DecompCacheBytes
		want.SEURepairs += st.SEURepairs
		want.ScrubTime += st.ScrubTime
		want.PipelinedLoads += st.PipelinedLoads
		want.PipeWindows += st.PipeWindows
		want.PipeStallTime += st.PipeStallTime
		want.PipeOverlapSaved += st.PipeOverlapSaved
		want.Defrags += st.Defrags
		want.Errors += st.Errors
		want.Phases.AddAll(st.Phases)
	}
	got := cl.Stats().Total
	if got != want {
		t.Errorf("aggregation mismatch:\n got  %+v\nwant %+v", got, want)
	}
	if want.Prefetches == 0 {
		t.Error("workload issued no prefetches — aggregation of Prefetches untested")
	}
	if want.ScrubTime == 0 {
		t.Error("scrub passes charged no time — aggregation of ScrubTime untested")
	}
	if want.Evictions == 0 {
		t.Error("workload forced no evictions — aggregation of Evictions untested")
	}
}

// TestClusterTraceCarriesCardIdentity attaches one shared log and
// checks the interleaved timeline stamps every event with a valid card
// index, that more than one card shows up, and that request spans made
// it through the async serving layer.
func TestClusterTraceCarriesCardIdentity(t *testing.T) {
	cl, err := New(3, ModeReplicate, core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	log := &trace.Log{}
	cl.SetTrace(log)
	res, err := cl.Serve(clusterJobs(t, 60), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 60 {
		t.Fatalf("served %d outputs", len(res.Outputs))
	}
	cards := map[int]bool{}
	spans := 0
	for _, e := range log.Events() {
		if e.Card < 0 || e.Card >= cl.Cards() {
			t.Fatalf("event %d carries card %d, outside [0,%d)", e.Seq, e.Card, cl.Cards())
		}
		cards[e.Card] = true
		if e.Kind == trace.KindSpan {
			spans++
		}
	}
	if len(cards) < 2 {
		t.Errorf("events from %d card(s); round-robin over 3 cards should hit several", len(cards))
	}
	if spans == 0 {
		t.Error("no span events — per-phase timeline missing from cluster runs")
	}
	if !slices.ContainsFunc(log.Events(), func(e trace.Event) bool { return e.Kind == trace.KindRequest }) {
		t.Error("no request events recorded")
	}
}

// TestClusterDispatcherGauges drives the async layer with a registry
// attached and checks the dispatcher-level series: submissions count
// every job, queues drain back to zero, workers end idle, and coalesced
// batches are accounted per card. Bursts of 10 stay under coalesceCap.
func TestClusterDispatcherGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	cl, err := New(2, ModeAffinity,
		core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Same-function bursts exercise the coalescer.
	bank := algos.Bank()
	var jobs []sched.Job
	for burst := 0; burst < 6; burst++ {
		f := bank[burst%4]
		for i := 0; i < 10; i++ {
			in := make([]byte, f.BlockBytes)
			in[0] = byte(i)
			jobs = append(jobs, sched.Job{Fn: f.ID(), Input: in, Seq: len(jobs)})
		}
	}
	if _, err := cl.Serve(jobs, 2); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	var submitted, coalescedJobs uint64
	for _, snap := range reg.Snapshot() {
		switch snap.Name {
		case "agile_cluster_submitted_total":
			submitted += uint64(snap.Value)
		case "agile_cluster_coalesced_jobs_total":
			coalescedJobs += uint64(snap.Value)
		case "agile_cluster_queue_depth":
			if snap.Value != 0 {
				t.Errorf("card %s queue depth %d after drain", snap.Label("card"), snap.Value)
			}
		case "agile_cluster_worker_busy":
			if snap.Value != 0 {
				t.Errorf("card %s worker still busy after Close", snap.Label("card"))
			}
		}
	}
	if submitted != uint64(len(jobs)) {
		t.Errorf("submitted_total = %d, want %d", submitted, len(jobs))
	}
	if coalescedJobs == 0 {
		t.Error("bursts produced no coalesced jobs")
	}
}
