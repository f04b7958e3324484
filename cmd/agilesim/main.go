// agilesim drives the full co-processor with a synthetic request stream
// and reports the mini OS's behaviour: hit rate, evictions, placement
// mix, prefetcher and difference-flow activity, and the per-phase latency
// profile. It is the scenario runner for exploring configurations beyond
// the fixed experiments.
//
// Usage:
//
//	agilesim                                       # defaults
//	agilesim -workload zipf -requests 5000
//	agilesim -policy fifo -codec rle -cols 24 -no-scatter
//	agilesim -prefetch -diff -sched window         # the full mini OS
//	agilesim -trace run.jsonl                      # export the event log
//	agilesim -trace-chrome run.json                # Perfetto/chrome://tracing timeline
//	agilesim -metrics-addr :9090                   # live /metrics + /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/replace"
	"agilefpga/internal/sched"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
	"agilefpga/internal/workload"
)

func main() {
	rows := flag.Int("rows", 32, "fabric rows (CLBs per frame)")
	cols := flag.Int("cols", 40, "fabric columns (frames)")
	codec := flag.String("codec", mcu.DefaultCodec, "bitstream codec: none|rle|lz77|huffman|framediff")
	policy := flag.String("policy", "lru", "replacement policy: lru|fifo|lfu|random")
	wname := flag.String("workload", "zipf", "request stream: uniform|zipf|phased|cyclic")
	requests := flag.Int("requests", 2000, "number of requests")
	payload := flag.Int("payload", 1024, "payload bytes per request (rounded up per function)")
	seed := flag.Uint64("seed", 1234, "workload seed")
	noScatter := flag.Bool("no-scatter", false, "contiguous-only placement")
	diff := flag.Bool("diff", false, "difference-based reconfiguration flow")
	prefetch := flag.Bool("prefetch", false, "configuration prefetching")
	schedName := flag.String("sched", "fifo", "host queue scheduler: fifo|sticky|window")
	tracePath := flag.String("trace", "", "write the event log as JSON lines to this file")
	chromePath := flag.String("trace-chrome", "", "write the event log as Chrome trace-event JSON to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /healthz on this address, e.g. :9090; keeps serving after the run")
	traceSample := flag.Float64("trace-sample", 0, "request tracing: head-sampling probability in [0,1] (0 = off); sampled calls become span trees (host call + virtual card phases) on /debug/traces")
	traceTail := flag.Int("trace-tail", 16, "request tracing: always retain the slowest N sampled traces (tail capture), plus an error ring")
	debugAddr := flag.String("debug-addr", "", "serve /debug/traces and /debug/pprof on this address, e.g. :6060; keeps serving after the run")
	flag.Parse()

	var reg *metrics.Registry
	var metricsLn net.Listener
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		var err error
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if _, err := reg.WriteTo(w); err != nil {
				log.Printf("agilesim: /metrics: %v", err)
			}
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(metricsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
		fmt.Printf("serving /metrics and /healthz on http://%s\n", metricsLn.Addr())
	}

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.NewTracer(trace.TracerOptions{Sample: *traceSample, TailN: *traceTail})
		defer tracer.Close()
	}
	var debugLn net.Listener
	if *debugAddr != "" {
		var err error
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dmux := http.NewServeMux()
		dmux.Handle("/debug/traces", tracer.Handler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(debugLn, dmux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("agilesim: debug server: %v", err)
			}
		}()
		fmt.Printf("serving /debug/traces and /debug/pprof on http://%s\n", debugLn.Addr())
	}

	pol, err := replace.New(*policy, 0)
	if err != nil {
		log.Fatal(err)
	}
	cp, err := core.New(core.Config{
		Geometry:       fpga.Geometry{Rows: *rows, Cols: *cols},
		Codec:          *codec,
		Policy:         pol,
		ContiguousOnly: *noScatter,
		DiffReload:     *diff,
		Prefetch:       *prefetch,
		Metrics:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	var eventLog *trace.Log
	if *tracePath != "" || *chromePath != "" {
		eventLog = &trace.Log{}
		cp.SetTrace(eventLog)
	}
	if _, err := cp.InstallBank(); err != nil {
		log.Fatal(err)
	}

	var ids []uint16
	blockOf := make(map[uint16]int)
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
		blockOf[f.ID()] = f.BlockBytes
	}
	gen, err := workload.New(*wname, ids, *seed)
	if err != nil {
		log.Fatal(err)
	}
	picker, err := sched.New(*schedName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("device %s, codec %s, policy %s, workload %s, sched %s, %d requests of ~%d B",
		fpga.Geometry{Rows: *rows, Cols: *cols}, *codec, *policy, *wname, *schedName, *requests, *payload)
	if *diff {
		fmt.Print(", diff-reload")
	}
	if *prefetch {
		fmt.Print(", prefetch")
	}
	fmt.Print("\n\n")

	jobs := make([]sched.Job, *requests)
	for i := range jobs {
		fn := gen.Next()
		n := *payload
		if blk := blockOf[fn]; n%blk != 0 {
			n = (n/blk + 1) * blk
		}
		in := make([]byte, n)
		in[0] = byte(i)
		jobs[i] = sched.Job{Fn: fn, Input: in, Seq: i}
	}

	var total, worst sim.Time
	serve := func(j sched.Job) error {
		// Sampled calls become span trees: a host call span with the
		// card's virtual phase breakdown underneath. A nil tracer (or
		// a sampled-out call) makes every span call a no-op.
		ref := tracer.StartRoot("call", "host", j.Fn)
		var run core.Result
		err := cp.Run(core.Job{Stages: []uint16{j.Fn}, Items: [][]byte{j.Input},
			TraceID: ref.TraceID, SpanID: ref.SpanID}, &run)
		if err != nil {
			tracer.End(ref, "error")
			return err
		}
		res := run.Results[0]
		for p := 0; p < sim.NumPhases; p++ {
			if d := res.Breakdown.Get(sim.Phase(p)); d > 0 {
				tracer.Add(ref, trace.Span{
					Name: sim.Phase(p).String(), Layer: "card", Fn: j.Fn,
					VirtPS: uint64(d),
				})
			}
		}
		tracer.End(ref, "ok")
		total += res.Latency
		if res.Latency > worst {
			worst = res.Latency
		}
		return nil
	}
	_, maxDisp, err := sched.Run(jobs, picker, cp.Resident, serve)
	if err != nil {
		log.Fatal(err)
	}
	if err := cp.Controller().CheckInvariants(); err != nil {
		log.Fatal(err)
	}

	st := cp.Stats()
	fmt.Printf("requests        %d\n", st.Requests)
	fmt.Printf("hit rate        %.3f  (%d hits / %d misses)\n",
		float64(st.Hits)/float64(st.Requests), st.Hits, st.Misses)
	fmt.Printf("evictions       %d\n", st.Evictions)
	fmt.Printf("frames loaded   %d  (%d B raw config, %d B from ROM)\n",
		st.FramesLoaded, st.RawConfigBytes, st.CompConfigBytes)
	fmt.Printf("placements      %d contiguous / %d scattered\n",
		st.ContigPlacements, st.ScatterPlacements)
	if *diff {
		fmt.Printf("frames revived  %d (difference flow)\n", st.FramesSkipped)
	}
	if *prefetch {
		fmt.Printf("prefetches      %d issued, %d hits, %v off-request time\n",
			st.Prefetches, st.PrefetchHits, st.PrefetchTime)
	}
	fmt.Printf("max overtaking  %d (scheduler %s)\n", maxDisp, *schedName)
	fmt.Printf("mean latency    %v   worst %v\n",
		sim.Time(uint64(total)/st.Requests), worst)
	fmt.Printf("\nphase totals over the run:\n")
	for p := 0; p < sim.NumPhases; p++ {
		if t := st.Phases.Get(sim.Phase(p)); t != 0 {
			fmt.Printf("  %-11s %v\n", sim.Phase(p), t)
		}
	}

	if eventLog != nil && *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := eventLog.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d events to %s\n", eventLog.Len(), *tracePath)
	}
	if eventLog != nil && *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := eventLog.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d events as a Chrome trace to %s\n", eventLog.Len(), *chromePath)
	}

	if reg != nil {
		fmt.Printf("\nlatency quantiles (virtual time, from the telemetry histograms):\n")
		for p := 0; p < sim.NumPhases; p++ {
			match := metrics.L("phase", sim.Phase(p).String())
			p50, n := reg.QuantileWhere("agile_phase_seconds", 0.50, match)
			if n == 0 {
				continue
			}
			p95, _ := reg.QuantileWhere("agile_phase_seconds", 0.95, match)
			p99, _ := reg.QuantileWhere("agile_phase_seconds", 0.99, match)
			fmt.Printf("  %-11s p50 %-12v p95 %-12v p99 %-12v (%d obs)\n",
				sim.Phase(p), p50, p95, p99, n)
		}
		fmt.Printf("\nmetrics live on http://%s/metrics\n", metricsLn.Addr())
	}
	if tracer != nil {
		// The run is over: stop the collector (idempotent; the deferred
		// Close becomes a no-op) so the rings hold every completion
		// before we report and keep serving /debug/traces.
		tracer.Close()
		fmt.Printf("\ntraces: %d completed, %d captured (tail keeps the slowest %d)\n",
			tracer.Completed(), len(tracer.Captured()), *traceTail)
	}

	if metricsSrv != nil || debugLn != nil {
		fmt.Printf("\nserving debug endpoints — ctrl-c to exit\n")
		// Keep serving until a signal, then shut the endpoints down
		// gracefully so in-progress scrapes finish and the process
		// exits cleanly.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		if metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := metricsSrv.Shutdown(ctx); err != nil {
				log.Printf("agilesim: metrics shutdown: %v", err)
			}
		}
		if debugLn != nil {
			debugLn.Close()
		}
	}
}
