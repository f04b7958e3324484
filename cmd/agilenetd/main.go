// agilenetd serves a multi-card co-processor cluster over TCP, turning
// the simulator into a network service: length-prefixed binary frames
// in, status-coded responses out, with admission control in front of
// the cards and Prometheus metrics on the side.
//
// Serve mode (the default):
//
//	agilenetd -addr :7600 -cards 4 -mode affinity
//	agilenetd -addr :7600 -max-inflight 256 -metrics-addr :9090
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests finish and flush, then the process exits.
//
// Client mode (-call) issues requests against a running daemon and
// reports latency, retries and output size — the smoke-test face of
// the client library:
//
//	agilenetd -call crc32 -addr :7600 -requests 100 -payload 64
//
// -chain runs a comma-separated stage list as one on-card dataflow
// chain per request — the payload crosses the wire and the card's PCI
// link once, intermediates stay in card RAM:
//
//	agilenetd -chain sha256,aes128 -addr :7600 -requests 100 -payload 256
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
	"strings"
	"sync"
	"syscall"
	"time"

	"agilefpga"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/replace"
	"agilefpga/internal/server"
	"agilefpga/internal/trace"
)

func main() {
	addr := flag.String("addr", ":7600", "TCP address to serve (or call against)")
	cards := flag.Int("cards", 2, "number of cards in the cluster")
	mode := flag.String("mode", cluster.ModeAffinity, "dispatch mode: replicate|partition|affinity")
	rows := flag.Int("rows", 32, "fabric rows per card")
	cols := flag.Int("cols", 40, "fabric columns per card")
	codec := flag.String("codec", mcu.DefaultCodec, "bitstream codec")
	policy := flag.String("policy", "lru", "replacement policy")
	prefetch := flag.Bool("prefetch", false, "configuration prefetching")
	diff := flag.Bool("diff", false, "difference-based reconfiguration")
	queue := flag.Int("queue", cluster.DefaultQueue, "per-card submission queue bound")
	maxInflight := flag.Int("max-inflight", server.DefaultMaxInflight, "admitted requests across all connections")
	batchWindow := flag.Int("batch-window", 0, "cross-client batching: coalesce up to this many same-function requests into one cluster batch (0/1 = off)")
	batchDwell := flag.Duration("batch-dwell", server.DefaultBatchDwell, "cross-client batching: max wait for a window to fill before it flushes")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address, e.g. :9090")
	traceSample := flag.Float64("trace-sample", 0, "distributed tracing: head-sampling probability in [0,1] (0 = tracing off); sampled requests become span trees on /debug/traces")
	traceTail := flag.Int("trace-tail", 16, "distributed tracing: always retain the slowest N sampled traces (tail capture), plus an error ring")
	debugAddr := flag.String("debug-addr", "", "serve /debug/traces, /debug/requests and /debug/pprof on this address, e.g. :6060")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")

	call := flag.String("call", "", "client mode: function name to call against -addr")
	chain := flag.String("chain", "", "client mode: comma-separated function names to run as one on-card chain against -addr")
	requests := flag.Int("requests", 10, "client mode: number of requests")
	payload := flag.Int("payload", 64, "client mode: payload bytes per request")
	timeout := flag.Duration("timeout", 5*time.Second, "client mode: per-request deadline")
	concurrency := flag.Int("concurrency", 1, "client mode: concurrent in-flight requests (pipelined over the multiplexed pool)")
	flag.Parse()

	if *call != "" && *chain != "" {
		log.Fatal("-call and -chain are mutually exclusive")
	}
	if *call != "" || *chain != "" {
		var stages []string
		if *chain != "" {
			stages = strings.Split(*chain, ",")
		}
		runClient(*addr, *call, stages, *requests, *payload, *concurrency, *timeout, *traceSample)
		return
	}

	pol, err := replace.New(*policy, 0)
	if err != nil {
		log.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cl, err := cluster.NewWithOptions(*cards, *mode, core.Config{
		Geometry:   fpga.Geometry{Rows: *rows, Cols: *cols},
		Codec:      *codec,
		Policy:     pol,
		Prefetch:   *prefetch,
		DiffReload: *diff,
		Metrics:    reg,
	}, cluster.Options{Queue: *queue})
	if err != nil {
		log.Fatal(err)
	}

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.NewTracer(trace.TracerOptions{Sample: *traceSample, TailN: *traceTail})
		defer tracer.Close()
		log.Printf("tracing %.0f%% of requests (tail keeps the slowest %d)", *traceSample*100, *traceTail)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(cl, server.Options{
		MaxInflight: *maxInflight,
		BatchWindow: *batchWindow,
		BatchDwell:  *batchDwell,
		Metrics:     reg,
		Tracer:      tracer,
	})

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dmux := http.NewServeMux()
		dmux.Handle("/debug/traces", tracer.Handler())
		dmux.Handle("/debug/requests", srv.DebugRequestsHandler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("agilenetd: debug server: %v", err)
			}
		}()
		log.Printf("debug surface on http://%s/debug/{traces,requests,pprof}", dln.Addr())
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if _, err := reg.WriteTo(w); err != nil {
				log.Printf("agilenetd: /metrics: %v", err)
			}
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("agilenetd: metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("serving %d cards (%s mode) on %s, max %d in flight",
		*cards, *mode, ln.Addr(), *maxInflight)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (up to %v)...", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		<-serveErr
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		metricsSrv.Shutdown(ctx)
	}
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		debugSrv.Shutdown(ctx)
	}
	cl.Close()
	log.Printf("drained; bye")
}

// runClient is the -call/-chain mode: a burst of requests through the
// public client API, with retries on overload. With -concurrency > 1
// the burst pipelines over the client's multiplexed connection pool;
// with a stage list each request is one chained call. A non-zero
// traceSample traces the burst: sampled calls ship their trace context
// on the wire so a tracing daemon joins the same traces.
func runClient(addr, fn string, stages []string, requests, payload, concurrency int, timeout time.Duration, traceSample float64) {
	var tracer *agilefpga.Tracer
	if traceSample > 0 {
		tracer = agilefpga.NewTracer(agilefpga.TracerOptions{Sample: traceSample})
		defer tracer.Close()
	}
	c, err := agilefpga.Dial(addr, agilefpga.DialOptions{Tracer: tracer})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if concurrency < 1 {
		concurrency = 1
	}
	in := make([]byte, payload)
	for i := range in {
		in[i] = byte(i)
	}
	start := time.Now() //lint:wallclock client-mode smoke test measures real request latency
	var mu sync.Mutex
	var bytesOut int
	cardSeen := make(map[int]int)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			var out []byte
			var card int
			var err error
			if stages != nil {
				out, card, err = c.CallChain(ctx, stages, in)
			} else {
				out, card, err = c.Call(ctx, fn, in)
			}
			cancel()
			if err != nil {
				log.Fatalf("request %d: %v", i, err)
			}
			if len(out) == 0 {
				log.Fatalf("request %d: empty output", i)
			}
			mu.Lock()
			bytesOut += len(out)
			cardSeen[card]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start) //lint:wallclock client-mode smoke test measures real request latency
	label := fn
	if stages != nil {
		label = strings.Join(stages, "->")
	}
	fmt.Printf("%d × %s ok (%d in flight): %d B in/req, %d B out total, %.1f req/s, cards %v\n",
		requests, label, concurrency, payload, bytesOut,
		float64(requests)/elapsed.Seconds(), cardSeen)
}
