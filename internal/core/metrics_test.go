package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

// TestStatsRequiresCardLock asserts the contract documented on
// mcu.Controller.Stats: the controller itself is unsynchronized, and it
// is core.CoProcessor's per-card mutex that makes Stats safe to call
// while other goroutines drive the card. Run under -race, this test
// fails if CoProcessor.Stats ever stops taking the lock.
func TestStatsRequiresCardLock(t *testing.T) {
	cp, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	names := []string{"aes128", "tdes", "sha1", "crc32"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := make([]byte, 64)
			for i := 0; i < 25; i++ {
				if _, err := cp.Call(names[(g+i)%len(names)], in); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st := cp.Stats()
				if st.Hits > st.Requests {
					t.Error("stats snapshot inconsistent: hits > requests")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := cp.Stats(); st.Requests != 100 {
		t.Errorf("requests = %d, want 100", st.Requests)
	}
}

// metricsWorkload drives a fixed request sequence and returns the
// latency of every call.
func metricsWorkload(t *testing.T, cp *CoProcessor) []sim.Time {
	t.Helper()
	names := []string{"aes128", "sha1", "aes128", "fft64", "tdes", "aes128", "sha1"}
	var lat []sim.Time
	for i, name := range names {
		in := make([]byte, 128)
		in[0] = byte(i)
		res, err := cp.Call(name, in)
		if err != nil {
			t.Fatalf("call %s: %v", name, err)
		}
		lat = append(lat, res.Latency)
	}
	return lat
}

// TestMetricsChangeNoVirtualTime is the determinism guarantee of the
// telemetry layer: the same workload costs exactly the same virtual
// time with and without a registry attached, and — extending the same
// proof to the tracing layer — with every call tagged for a
// 100%-sampled trace via Run's trace tag.
func TestMetricsChangeNoVirtualTime(t *testing.T) {
	plain, err := New(Config{Prefetch: true, DecodeCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := New(Config{
		Prefetch: true, DecodeCacheBytes: 1 << 20,
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(Config{
		Prefetch: true, DecodeCacheBytes: 1 << 20,
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []*CoProcessor{plain, observed, traced} {
		if _, err := cp.InstallBank(); err != nil {
			t.Fatal(err)
		}
	}
	latPlain := metricsWorkload(t, plain)
	latObserved := metricsWorkload(t, observed)
	latTraced := tracedWorkload(t, traced)
	for i := range latPlain {
		if latPlain[i] != latObserved[i] {
			t.Errorf("call %d: latency %v without metrics, %v with", i, latPlain[i], latObserved[i])
		}
		if latPlain[i] != latTraced[i] {
			t.Errorf("call %d: latency %v untraced, %v traced", i, latPlain[i], latTraced[i])
		}
	}
	if p, o := plain.Stats(), observed.Stats(); p != o {
		t.Errorf("stats diverge: %+v vs %+v", p, o)
	}
	if p, tr := plain.Stats(), traced.Stats(); p != tr {
		t.Errorf("stats diverge under tracing: %+v vs %+v", p, tr)
	}
}

// tracedWorkload is metricsWorkload with every call tagged for a
// sampled trace, the way the cluster dispatcher drives a card when a
// request carries wire trace context.
func tracedWorkload(t *testing.T, cp *CoProcessor) []sim.Time {
	t.Helper()
	tracer := trace.NewTracer(trace.TracerOptions{Sample: 1, Seed: 5})
	defer tracer.Close()
	names := []string{"aes128", "sha1", "aes128", "fft64", "tdes", "aes128", "sha1"}
	var lat []sim.Time
	for i, name := range names {
		fn, err := algos.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]byte, 128)
		in[0] = byte(i)
		ref := tracer.StartRoot("call", "host", fn.ID())
		var res Result
		err = cp.Run(Job{Stages: []uint16{fn.ID()}, Items: [][]byte{in},
			TraceID: ref.TraceID, SpanID: ref.SpanID}, &res)
		tracer.End(ref, "ok")
		if err != nil {
			t.Fatalf("call %s: %v", name, err)
		}
		lat = append(lat, res.Results[0].Latency)
	}
	return lat
}

// TestMetricsRecordRequestPath checks the request path lands in the
// registry: per-phase histograms with function labels, the round-trip
// histogram, and the Prometheus rendering of both.
func TestMetricsRecordRequestPath(t *testing.T) {
	reg := metrics.NewRegistry()
	cp, err := New(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	metricsWorkload(t, cp)

	if _, n := reg.QuantileWhere("agile_request_seconds", 0.5, metrics.L("fn", "aes128")); n != 3 {
		t.Errorf("aes128 request observations = %d, want 3", n)
	}
	if _, n := reg.QuantileWhere("agile_phase_seconds", 0.5,
		metrics.L("phase", sim.PhasePCI.String())); n == 0 {
		t.Error("no PCI phase observations — host-side phase not recorded")
	}
	if _, n := reg.QuantileWhere("agile_phase_seconds", 0.5,
		metrics.L("phase", sim.PhaseConfigure.String()), metrics.L("fn", "aes128")); n == 0 {
		t.Error("no configure observations labelled fn=aes128")
	}

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`agile_phase_seconds_bucket{fn="aes128",phase="configure",le="+Inf"}`,
		`agile_request_seconds_count{fn="sha1"}`,
		`agile_requests_total{fn="aes128",result="hit"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
