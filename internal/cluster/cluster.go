// Package cluster dispatches requests across several co-processor cards
// — the natural scale-out once one card's fabric cannot hold the working
// set. Three placement strategies bracket the design space:
//
//   - replicate: every card carries the full bank in ROM; requests
//     round-robin across cards. Each card still thrashes its fabric, but
//     capacity multiplies.
//   - partition: each function is pinned to one card, assignment chosen
//     by greedy balance of frame demand. Once the per-card share fits
//     the fabric, every request after warmup is a hit — reconfiguration
//     disappears entirely.
//   - affinity: every card carries the full bank (like replicate), but
//     the dispatcher routes consistently by function id: the first
//     request for a function pins it to the least-loaded card (by frame
//     demand) and every later request follows the pin. Capacity
//     multiplies like replicate, yet fabrics stop thrashing like
//     partition — and unlike partition, the pins adapt to the observed
//     workload instead of the static bank.
//
// The dispatcher is host software and safe for concurrent use: each
// card is a full core.CoProcessor with its own lock, so cards execute
// genuinely in parallel. Beyond the synchronous Call, the cluster runs
// one worker goroutine per card behind a bounded submission queue;
// Submit/Wait is the async interface and Serve drains a whole job list.
//
// There is one job shape (DESIGN §9): a stage list — one function, or a
// chain that runs as one on-card dataflow — over one or more inputs,
// routed once, queued as ONE entry and served by one core.Run. Workers
// coalesce consecutive entries with the same stage list into a single
// pipelined run.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sched"
	"agilefpga/internal/trace"
)

// Modes.
const (
	ModeReplicate = "replicate"
	ModePartition = "partition"
	ModeAffinity  = "affinity"
)

// Modes lists the dispatch strategies.
func Modes() []string { return []string{ModeReplicate, ModePartition, ModeAffinity} }

// Options tunes the dispatcher. The zero value of every field selects a
// default.
type Options struct {
	// Queue bounds each card's submission queue (default 32). A full
	// queue applies backpressure: Submit blocks until the card drains.
	Queue int
}

// DefaultQueue is Options.Queue's default.
const DefaultQueue = 32

// coalesceCap caps how many consecutive same-stage-list jobs a card
// worker folds into one pipelined run.
const coalesceCap = 16

// Cluster is a set of cards behind one dispatcher.
type Cluster struct {
	cards []*core.CoProcessor
	mode  string
	// home maps function id → card index (partition mode). Immutable
	// after New.
	home map[uint16]int
	// demand maps function id → frame demand, for affinity balancing.
	// Immutable after New.
	demand map[uint16]int

	// mu guards the routing state below.
	mu sync.Mutex
	// rr is the round-robin cursor (replicate mode).
	rr int
	// affinity maps a stage list → pinned card (affinity mode). A chain
	// pins as a unit, not per stage, so repeated chains land on the card
	// already holding every stage resident; a function's key is its
	// one-stage list.
	affinity map[stageList]int
	// load is the pinned frame demand per card (affinity mode).
	load []int

	// Async serving layer: one bounded queue and one worker per card,
	// started on first Submit. stopMu orders submissions against Close:
	// enqueues happen under the read lock, Close flips stopped under the
	// write lock before closing the queues, so a late Submit observes
	// stopped instead of sending on a closed channel.
	opts      Options
	queues    []chan *Pending
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
	stopMu    sync.RWMutex
	stopped   bool

	// metrics is the shared telemetry registry every card records into
	// (nil when core.Config.Metrics was nil); cardLabels caches the
	// per-card label the dispatcher gauges carry.
	metrics    *metrics.Registry
	cardLabels []metrics.Label
}

// New builds a cluster of n cards sharing one configuration, provisioning
// the whole algorithm bank according to mode. Each card replaces frames
// with its own fresh copy of cfg.Policy.
func New(n int, mode string, cfg core.Config) (*Cluster, error) {
	return NewWithOptions(n, mode, cfg, Options{})
}

// NewWithOptions is New with dispatcher tuning.
func NewWithOptions(n int, mode string, cfg core.Config, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one card, got %d", n)
	}
	if opts.Queue <= 0 {
		opts.Queue = DefaultQueue
	}
	cl := &Cluster{
		mode:     mode,
		home:     make(map[uint16]int),
		demand:   make(map[uint16]int),
		affinity: make(map[stageList]int),
		load:     make([]int, n),
		opts:     opts,
	}
	cl.metrics = cfg.Metrics
	for i := 0; i < n; i++ {
		card := cfg
		if cfg.Policy != nil {
			card.Policy = cfg.Policy.Fresh()
		}
		cp, err := core.New(card)
		if err != nil {
			return nil, err
		}
		cp.SetCard(i)
		cl.cards = append(cl.cards, cp)
		cl.cardLabels = append(cl.cardLabels, metrics.L("card", strconv.Itoa(i)))
	}
	geom := cl.cards[0].Controller().Fabric().Geometry()
	for _, f := range algos.Bank() {
		cl.demand[f.ID()] = geom.FramesForLUTs(f.LUTs)
	}
	switch mode {
	case ModeReplicate, ModeAffinity:
		if err := cl.replicateBank(); err != nil {
			return nil, err
		}
		for _, f := range algos.Bank() {
			cl.home[f.ID()] = -1 // any card
		}
	case ModePartition:
		if err := cl.partition(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: unknown mode %q", mode)
	}
	cl.queues = make([]chan *Pending, n)
	for i := range cl.queues {
		cl.queues[i] = make(chan *Pending, opts.Queue)
	}
	return cl, nil
}

// replicateBank provisions the full bank on every card. The host
// synthesises and compresses each image once and downloads the same
// blob to every card, instead of paying the synthesis n times.
func (cl *Cluster) replicateBank() error {
	geom := cl.cards[0].Controller().Fabric().Geometry()
	codec := cl.cards[0].Codec()
	serial := uint16(0)
	for _, f := range algos.Bank() {
		serial++
		rec, blob, err := core.BuildImage(geom, f, codec, serial)
		if err != nil {
			return fmt.Errorf("cluster: building %s: %w", f.Name(), err)
		}
		for i, cp := range cl.cards {
			if _, err := cp.InstallImage(f, rec, blob); err != nil {
				return fmt.Errorf("cluster: installing %s on card %d: %w", f.Name(), i, err)
			}
		}
	}
	return nil
}

// partition assigns functions to cards by greedy frame-demand balancing
// (largest demand first onto the least-loaded card) and installs each
// function only on its home card.
func (cl *Cluster) partition() error {
	type item struct {
		f      *algos.Function
		demand int
	}
	items := make([]item, 0, algos.BankSize)
	for _, f := range algos.Bank() {
		items = append(items, item{f, cl.demand[f.ID()]})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].demand != items[j].demand {
			return items[i].demand > items[j].demand
		}
		return items[i].f.ID() < items[j].f.ID()
	})
	load := make([]int, len(cl.cards))
	for _, it := range items {
		best := 0
		for c := 1; c < len(load); c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		if _, err := cl.cards[best].Install(it.f); err != nil {
			return fmt.Errorf("cluster: installing %s on card %d: %w", it.f.Name(), best, err)
		}
		cl.home[it.f.ID()] = best
		load[best] += it.demand
	}
	return nil
}

// Cards reports the cluster size.
func (cl *Cluster) Cards() int { return len(cl.cards) }

// Mode reports the dispatch strategy.
func (cl *Cluster) Mode() string { return cl.mode }

// Sentinel errors. Callers that must translate dispatcher failures into
// another vocabulary (for example the wire status codes of
// internal/server) match these with errors.Is.
var (
	// ErrUnknownFunction reports a request for a function no card carries.
	ErrUnknownFunction = errors.New("cluster: function not provisioned on any card")
	// ErrQueueFull reports a non-blocking submission that found the routed
	// card's bounded queue full — the overload signal admission control
	// maps to RESOURCE_EXHAUSTED.
	ErrQueueFull = errors.New("cluster: card queue full")
	// ErrStopped reports a submission issued after Close.
	ErrStopped = errors.New("cluster: dispatcher stopped")
	// ErrChainSplit reports a chain whose stages are partitioned across
	// different home cards: a partition-mode cluster cannot run it as one
	// on-card dataflow (the stages never co-reside).
	ErrChainSplit = errors.New("cluster: chain stages partitioned across different cards")
)

// stageList is a job's stage list in comparable form: the affinity map
// keys on it and the worker's coalescing test is one ==.
type stageList struct {
	k   int
	fns [mcu.MaxChainStages]uint16
}

func newStageList(stages []uint16) (stageList, error) {
	var s stageList
	if len(stages) < 1 || len(stages) > len(s.fns) {
		return s, fmt.Errorf("cluster: job must name 1..%d stages, got %d", len(s.fns), len(stages))
	}
	s.k = copy(s.fns[:], stages)
	return s, nil
}

func (s *stageList) slice() []uint16 { return s.fns[:s.k] }

// route picks the card to serve a stage list, applying the mode's
// policy to the list as a unit: the card must carry every stage.
func (cl *Cluster) route(stages stageList) (int, error) {
	home := -1
	for i, fn := range stages.slice() {
		h, ok := cl.home[fn]
		if !ok {
			return -1, fmt.Errorf("%w: id %d (stage %d)", ErrUnknownFunction, fn, i)
		}
		if h >= 0 { // partition: pinned at construction, and all to one card
			if home >= 0 && h != home {
				return -1, fmt.Errorf("%w: stage %d on card %d, earlier stages on card %d",
					ErrChainSplit, i, h, home)
			}
			home = h
		}
	}
	if home >= 0 {
		return home, nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.mode == ModeAffinity {
		if card, ok := cl.affinity[stages]; ok {
			return card, nil
		}
		// First sight of this stage list: pin it to the card with the
		// least pinned frame demand (ties to the lowest index) — the
		// online version of partition's greedy balance, driven by the
		// live workload — charging the demand of its distinct stages
		// (they will all be resident at once).
		best := 0
		for c := 1; c < len(cl.load); c++ {
			if cl.load[c] < cl.load[best] {
				best = c
			}
		}
		cl.affinity[stages] = best
	charge:
		for i, fn := range stages.slice() {
			for _, earlier := range stages.fns[:i] {
				if earlier == fn {
					continue charge
				}
			}
			cl.load[best] += cl.demand[fn]
		}
		return best, nil
	}
	card := cl.rr
	cl.rr = (cl.rr + 1) % len(cl.cards)
	return card, nil
}

// call routes one job and runs it synchronously on the serving card.
func (cl *Cluster) call(stages []uint16, input []byte) (*core.CallResult, int, error) {
	key, err := newStageList(stages)
	if err != nil {
		return nil, -1, err
	}
	card, err := cl.route(key)
	if err != nil {
		return nil, -1, err
	}
	res := new(core.Result)
	if err := cl.cards[card].Run(core.Job{Stages: stages, Items: [][]byte{input}}, res); err != nil {
		return nil, card, err
	}
	return &res.Results[0], card, nil
}

// Call routes one request, returning the result and the card that served
// it. Safe for concurrent use; calls routed to different cards execute
// in parallel.
func (cl *Cluster) Call(fnID uint16, input []byte) (*core.CallResult, int, error) {
	return cl.call([]uint16{fnID}, input)
}

// CallChain is Call for a chain: fns run as one on-card dataflow on a
// card that carries every stage.
func (cl *Cluster) CallChain(fns []uint16, input []byte) (*core.CallResult, int, error) {
	return cl.call(fns, input)
}

// Pending is an in-flight submission. Wait blocks until the card served
// (or failed) the request.
//
// Pendings are pooled: whoever ends a Pending's last use may Release it
// for reuse, after which neither it nor the *core.CallResult its Wait
// returned may be touched. The result's Output is read into a buffer
// the Pending keeps across uses, so it is valid until Release: a
// server writes its reply before it releases. A caller that gives up on
// a Pending before it settles — Await returned false — must not
// Release it: the job may still be queued or on a card, and the card
// may yet write its output buffer, so the Pending and its buffer are
// left to the garbage collector. Releasing is optional; a Pending that
// is never released is collected like any value, and its Output stays
// the caller's.
type Pending struct {
	stages stageList
	input  []byte
	ctx    context.Context
	// done holds one token once the submission settles. complete sends
	// it; every receiver hands it straight back, so Wait and Await may
	// be called any number of times, and the channel is reused when the
	// Pending is.
	done   chan struct{}
	res    *core.CallResult
	card   int
	err    error
	result core.CallResult // what res points at for a served job
	// out and attr are the storage result.Output and result.Stages are
	// read into. Unlike every other field they survive Release, so a
	// pooled Pending serves its next job without allocating.
	out  []byte
	attr []core.StageResult
	// self backs the one-element slices a single-input submission
	// returns and its queue entry expands to, so neither allocates.
	self [1]*Pending
	// group, when non-nil, marks this Pending as the carrier of a
	// multi-input job: the carrier occupies one queue slot and the worker
	// expands it into its children, which settle individually. A carrier
	// itself never completes.
	group []*Pending
	// ref is the caller's trace span for this job (zero when the
	// request is not sampled). It rides to the card worker, which tags
	// the card-log events with it and stamps the wall times below so
	// the caller can split queue wait from service time.
	ref trace.SpanRef
	// tSubmit/tStart/tDone are wall-clock stamps (ns): enqueue time,
	// the moment the worker began the job's coalesced run, and run
	// completion. Stamped only for traced jobs, always before
	// complete() settles the job, so Wait gives the happens-before edge
	// that makes TraceTimes race-free.
	tSubmit, tStart, tDone int64
}

var pendingPool = sync.Pool{New: func() any { return &Pending{done: make(chan struct{}, 1)} }}

// newPending takes a Pending from the pool, ready for one input.
func newPending(stages stageList, input []byte) *Pending {
	p := pendingPool.Get().(*Pending)
	p.stages, p.input, p.ctx, p.card = stages, input, context.Background(), -1
	p.self[0] = p
	return p
}

// Release recycles a settled Pending. See the type's comment for when
// a caller may; Release waits for settlement rather than recycle a job
// still in flight.
func (p *Pending) Release() {
	<-p.done
	*p = Pending{done: p.done, out: p.out[:0], attr: p.attr[:0]}
	pendingPool.Put(p)
}

// expand returns the jobs this queue entry stands for: the group's
// children for a carrier, the entry itself otherwise.
func (p *Pending) expand() []*Pending {
	if p.group != nil {
		return p.group
	}
	return p.self[:]
}

// Wait blocks until completion, returning the result and serving card.
func (p *Pending) Wait() (*core.CallResult, int, error) {
	<-p.done
	p.done <- struct{}{}
	return p.res, p.card, p.err
}

// Await blocks until the submission settles or ctx ends, and reports
// whether it settled; Wait then returns at once. When ctx ends first,
// the job may still be queued or running on a card and reading its
// input: the caller must keep the input intact and must not Release
// the Pending.
func (p *Pending) Await(ctx context.Context) bool {
	select {
	case <-p.done:
		p.done <- struct{}{}
		return true
	case <-ctx.Done():
		return false
	}
}

// TraceTimes reports the wall-clock stamps of a traced submission:
// enqueue, service start, and service end (ns). Zero stamps mean the
// job was not traced (or never reached that stage — a routing failure
// leaves start/done zero). Valid only after Wait (or Await) returns.
func (p *Pending) TraceTimes() (submitNS, startNS, doneNS int64) {
	return p.tSubmit, p.tStart, p.tDone
}

// nowNS is the cluster's wall clock for queue-wait/service-time trace
// stamps.
func nowNS() int64 {
	return time.Now().UnixNano() //lint:wallclock trace stamps measure real queue wait, not simulated cycles
}

func (p *Pending) complete(res *core.CallResult, card int, err error) {
	p.res, p.card, p.err = res, card, err
	p.done <- struct{}{}
}

// Failed returns an already-completed Pending carrying err, for callers
// that must fail a submission before it reaches any queue (for example
// a bad function name at an outer API layer).
func Failed(err error) *Pending {
	p := &Pending{done: make(chan struct{}, 1), card: -1}
	p.complete(nil, -1, err)
	return p
}

// Submit enqueues one request on its routed card's bounded queue and
// returns immediately. Routing errors (unknown function) surface through
// Wait, so the async API has one error path. Submit blocks only when the
// target card's queue is full (backpressure). A Submit issued after
// Close fails with ErrStopped.
func (cl *Cluster) Submit(fnID uint16, input []byte) *Pending {
	return cl.SubmitContext(context.Background(), fnID, input, true)
}

// SubmitContext is Submit with deadline plumbing and an admission
// choice: SubmitJob for one untraced input of one function.
func (cl *Cluster) SubmitContext(ctx context.Context, fnID uint16, input []byte, wait bool) *Pending {
	return cl.SubmitJob(Job{
		Stages: []uint16{fnID}, Inputs: [][]byte{input}, Ctxs: []context.Context{ctx}, Wait: wait,
	})[0]
}

// Job is one submission: a stage list over one or more inputs.
type Job struct {
	// Stages names one function, or a chain of up to mcu.MaxChainStages
	// that runs as one on-card dataflow.
	Stages []uint16
	// Inputs are aliased, not copied: they must stay valid until the
	// matching Pending settles.
	Inputs [][]byte
	// Ctxs gives each input its own deadline. It may be shorter than
	// Inputs; a missing or nil entry means no deadline.
	Ctxs []context.Context
	// Refs gives each input its caller's trace span. It may be shorter
	// than Inputs; a missing or zero entry means an untraced member. A
	// traced member is stamped with wall times at enqueue and around its
	// card run (TraceTimes), and the run's card-log events are tagged
	// with the first traced member's ids.
	Refs []trace.SpanRef
	// Wait selects the admission policy on a full card queue: block until
	// space, the first queued member's context ends or the cluster stops;
	// or fail the job at once with ErrQueueFull, so callers doing
	// admission control can shed load explicitly.
	Wait bool
}

// SubmitJob is the one submission path. The job is routed once and
// enqueued as ONE entry on the serving card's bounded queue however
// many inputs it carries — the cross-client batching entry point: the
// network batcher hands a whole window to the card in one hop — and the
// worker serves it as one pipelined run, coalesced with neighbouring
// entries for the same stage list. It returns one Pending per input and
// every failure surfaces through Wait. Members stay independent: one
// whose context has already ended, or whose input the card could never
// stage (core.CheckInput), fails here, alone, before it can join other
// members' run; one whose deadline expires while queued is failed by
// the worker without touching the card. A single-input job costs no
// allocation once the Pending pool is warm: its slice is backed by the
// Pending itself.
func (cl *Cluster) SubmitJob(job Job) []*Pending {
	stages, err := newStageList(job.Stages)
	var all []*Pending
	if len(job.Inputs) == 1 {
		p := newPending(stages, job.Inputs[0])
		all = p.self[:]
	} else {
		all = make([]*Pending, len(job.Inputs))
		for i, input := range job.Inputs {
			all[i] = newPending(stages, input)
		}
	}
	failed := 0
	for i, p := range all {
		if i < len(job.Ctxs) && job.Ctxs[i] != nil {
			p.ctx = job.Ctxs[i]
		}
		if i < len(job.Refs) && job.Refs[i].Valid() {
			p.ref, p.tSubmit = job.Refs[i], nowNS()
		}
		perr := err
		if perr == nil {
			perr = p.ctx.Err()
		}
		if perr == nil {
			perr = cl.cards[0].CheckInput(job.Stages, p.input) // every card has the same windows
		}
		if perr != nil {
			p.complete(nil, -1, perr)
			failed++
		}
	}
	live := all
	if failed > 0 {
		live = make([]*Pending, 0, len(all)-failed)
		for _, p := range all {
			if p.err == nil {
				live = append(live, p)
			}
		}
	}
	if len(live) == 0 {
		return all
	}
	card, err := cl.route(stages)
	if err == nil {
		entry := live[0]
		if len(live) > 1 {
			entry = &Pending{stages: stages, card: card, group: live}
		}
		for _, p := range live {
			p.card = card
		}
		err = cl.enqueue(live[0].ctx, card, entry, job.Wait)
	}
	if err != nil {
		for _, p := range live {
			p.complete(nil, card, err)
		}
	}
	return all
}

// enqueue places one queue entry — a single job or a group carrier —
// on card's queue, honouring the stop handshake and the wait policy.
// A non-nil return means the entry was not enqueued and the caller
// must complete its pendings with the error.
func (cl *Cluster) enqueue(ctx context.Context, card int, p *Pending, wait bool) error {
	cl.stopMu.RLock()
	defer cl.stopMu.RUnlock()
	if cl.stopped {
		return ErrStopped
	}
	cl.startOnce.Do(cl.startWorkers)
	if wait {
		// The blocking enqueue deliberately holds stopMu.RLock: Stop takes
		// the write lock, so an in-flight submit completing under the read
		// lock is exactly the stop/submit race this guards against, and
		// ctx.Done keeps the wait bounded.
		//lint:allow chanundermutex enqueue-under-RLock is the stop/submit handshake; ctx bounds the block
		select {
		case cl.queues[card] <- p:
		case <-ctx.Done():
			return ctx.Err()
		}
	} else {
		select {
		case cl.queues[card] <- p:
		default:
			if cl.metrics != nil {
				cl.metrics.Counter("agile_cluster_rejected_total", cl.cardLabels[card]).Inc()
			}
			return ErrQueueFull
		}
	}
	if cl.metrics != nil {
		cl.metrics.Counter("agile_cluster_submitted_total", cl.cardLabels[card]).Add(uint64(len(p.expand())))
		cl.metrics.Gauge("agile_cluster_queue_depth", cl.cardLabels[card]).Inc()
	}
	return nil
}

// Close shuts the worker goroutines down and waits for queued work to
// drain. Submissions issued after Close fail with ErrStopped; Serve must
// not be in flight. Synchronous Call and Stats remain usable. Close is
// idempotent.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		cl.stopMu.Lock()
		cl.stopped = true
		cl.stopMu.Unlock()
		for _, q := range cl.queues {
			close(q)
		}
		cl.wg.Wait()
	})
}

func (cl *Cluster) startWorkers() {
	cl.wg.Add(len(cl.cards))
	for i := range cl.cards {
		go cl.worker(i)
	}
}

// worker drains one card's queue. Consecutive entries for the same
// stage list coalesce into a single pipelined run, so an affinity-mode
// cluster turns a run of same-function (or same-chain) submissions into
// one resident configuration and a pipelined burst. Group carriers
// expand into their children here: a cross-client batch window arrives
// as one entry and joins the same coalescing machinery, so a group may
// carry the run past coalesceCap (the cap bounds how many further
// entries are folded, not a group's own size).
func (cl *Cluster) worker(card int) {
	defer cl.wg.Done()
	q := cl.queues[card]
	var depth *metrics.Gauge
	if cl.metrics != nil {
		depth = cl.metrics.Gauge("agile_cluster_queue_depth", cl.cardLabels[card])
	}
	var held *Pending
	var run []*Pending  // reused across iterations: serveRun keeps nothing
	var res core.Result // likewise: each job's result is copied into its Pending
	for {
		var p *Pending
		if held != nil {
			p, held = held, nil
		} else {
			var ok bool
			p, ok = <-q
			if !ok {
				return
			}
			depth.Dec()
		}
		run = append(run[:0], p.expand()...)
	coalesce:
		for len(run) < coalesceCap {
			select {
			case next, ok := <-q:
				if !ok {
					break coalesce
				}
				depth.Dec()
				if next.stages == p.stages {
					run = append(run, next.expand()...)
				} else {
					held = next
					break coalesce
				}
			default:
				break coalesce
			}
		}
		cl.serveRun(card, run, &res)
	}
}

// serveRun executes a coalesced run of jobs with one stage list on one
// card, as one core job into the worker's res. Jobs whose deadline
// expired while queued are failed without touching the card: their
// caller has already given up, so spending fabric time on them only
// delays the live jobs behind them.
func (cl *Cluster) serveRun(card int, run []*Pending, res *core.Result) {
	// The wall clock is read only for a run with a traced member: only
	// a traced job keeps its stamps.
	traced := slices.ContainsFunc(run, func(p *Pending) bool { return p.ref.Valid() })
	var now int64
	if traced {
		now = nowNS()
	}
	live := run[:0]
	for _, p := range run {
		if err := p.ctx.Err(); err != nil {
			if cl.metrics != nil {
				cl.metrics.Counter("agile_cluster_expired_total", cl.cardLabels[card]).Inc()
			}
			if p.ref.Valid() {
				// Expired in queue: all wait, no service.
				p.tStart, p.tDone = now, now
			}
			p.complete(nil, card, err)
			continue
		}
		if p.ref.Valid() {
			p.tStart = now
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	run = live
	if cl.metrics != nil {
		busy := cl.metrics.Gauge("agile_cluster_worker_busy", cl.cardLabels[card])
		busy.Set(1)
		defer busy.Set(0)
		if len(run) > 1 {
			cl.metrics.Counter("agile_cluster_coalesce_runs_total", cl.cardLabels[card]).Inc()
			cl.metrics.Counter("agile_cluster_coalesced_jobs_total", cl.cardLabels[card]).Add(uint64(len(run)))
		}
	}
	// The constant capacities keep the item and destination lists of a
	// usual run on the stack. Each output is read into its Pending's
	// buffer.
	job := core.Job{
		Stages: run[0].stages.slice(),
		Items:  make([][]byte, 0, coalesceCap),
		Dsts:   make([][]byte, 0, coalesceCap),
	}
	for _, p := range run {
		job.Items = append(job.Items, p.input)
		job.Dsts = append(job.Dsts, p.out)
		// The card-log events of the run are tagged with the first
		// traced member's span, by convention.
		if job.TraceID == 0 && p.ref.Valid() {
			job.TraceID, job.SpanID = p.ref.TraceID, p.ref.SpanID
		}
	}
	err := cl.cards[card].Run(job, res)
	// Close every traced member's service window just before completion,
	// so queue wait (tStart−tSubmit) plus service time (tDone−tStart)
	// tiles the job's whole dispatcher residency.
	var end int64
	if traced {
		end = nowNS()
	}
	for i, p := range run {
		if p.ref.Valid() {
			p.tDone = end
		}
		if err != nil {
			// A card error fails the whole pipeline; every job in the
			// run observes it.
			p.complete(nil, card, err)
		} else {
			// The output already sits in p's buffer (or in one the card
			// had to grow); a chain's stage list is copied out of res,
			// which the next run reuses.
			p.result = res.Results[i]
			p.out = p.result.Output
			if p.result.Stages != nil {
				p.attr = append(p.attr[:0], p.result.Stages...)
				p.result.Stages = p.attr
			}
			p.complete(&p.result, card, nil)
		}
	}
}

// ServeResult reports a drained job list.
type ServeResult struct {
	// Outputs holds each job's output, indexed like the jobs slice.
	Outputs [][]byte
	// Hits counts jobs served without reconfiguration.
	Hits int
	// Elapsed is the wall-clock drain time (host-side, not virtual).
	Elapsed time.Duration
}

// Serve drains jobs through the async serving layer using the given
// number of submitter goroutines (clamped to [1, len(jobs)]), waiting
// for every job. Outputs come back in job order. The first job error is
// returned after all jobs settle.
func (cl *Cluster) Serve(jobs []sched.Job, workers int) (*ServeResult, error) {
	if len(jobs) == 0 {
		return &ServeResult{}, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	start := time.Now() //lint:wallclock Serve reports operator-facing wall latency, not simulated cycles
	pendings := make([]*Pending, len(jobs))
	var submitters sync.WaitGroup
	submitters.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer submitters.Done()
			for i := w; i < len(jobs); i += workers {
				pendings[i] = cl.Submit(jobs[i].Fn, jobs[i].Input)
			}
		}(w)
	}
	submitters.Wait()
	res := &ServeResult{Outputs: make([][]byte, len(jobs))}
	var firstErr error
	for i, p := range pendings {
		call, _, err := p.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: job %d (fn %d): %w", jobs[i].Seq, jobs[i].Fn, err)
			}
			continue
		}
		res.Outputs[i] = call.Output
		if call.Hit {
			res.Hits++
		}
	}
	res.Elapsed = time.Since(start) //lint:wallclock Serve reports operator-facing wall latency, not simulated cycles
	return res, firstErr
}

// Stats aggregates card statistics and reports per-card load balance.
type Stats struct {
	Total mcu.Stats
	// PerCardRequests exposes the balance the dispatcher achieved.
	PerCardRequests []uint64
	// HitRate over the whole cluster.
	HitRate float64
}

// Stats aggregates over all cards. Safe for concurrent use.
func (cl *Cluster) Stats() Stats {
	var out Stats
	for _, cp := range cl.cards {
		st := cp.Stats()
		out.PerCardRequests = append(out.PerCardRequests, st.Requests)
		out.Total.Add(st)
	}
	out.HitRate = out.Total.HitRate()
	return out
}

// SetTrace attaches one shared event log to every card, so cluster runs
// interleave all cards' events (each stamped with its card identity) in
// a single timeline. Pass nil to disable.
func (cl *Cluster) SetTrace(l *trace.Log) {
	for _, cp := range cl.cards {
		cp.SetTrace(l)
	}
}

// Metrics exposes the shared telemetry registry (nil when the cluster
// was built without one).
func (cl *Cluster) Metrics() *metrics.Registry { return cl.metrics }

// CheckInvariants verifies every card's mini-OS bookkeeping.
func (cl *Cluster) CheckInvariants() error {
	for i, cp := range cl.cards {
		if err := cp.CheckInvariants(); err != nil {
			return fmt.Errorf("cluster: card %d: %w", i, err)
		}
	}
	return nil
}
