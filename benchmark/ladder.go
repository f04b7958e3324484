package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/sim"
	"agilefpga/internal/wire"
)

// The traced ladder attributes host time to layers from the outside,
// with spans recorded around the calls into each layer's public
// functions. One rung per layer, outermost first: a fresh, identical
// stack is built up to that layer and the same ops are replayed into it
// by a single caller, so residency evolves identically on every rung
// and spans pair by op index. A layer's self time is the median over
// ops of (its span − the span of the rung below). What this cannot see
// is queue wait under concurrency: that needs spans inside the program
// (ROADMAP E21).

// span is one timed call into one layer's public function.
type span struct {
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	Fn      string `json:"fn"`
	StartNS int64  `json:"start_ns"` // since the ladder began
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"` // the enclosing rung's layer, paired by op
}

// rung is one layer of the ladder: how much stack to build and how to
// call into it.
type rung struct {
	layer string
	build layer
	call  func(ctx context.Context, l *ladder, s *stack, i int, o *op) error
}

type ladder struct {
	w     *workload
	ops   []op
	epoch time.Time
	spans []span
	// card is the card index the cluster rung reported per op; the
	// rungs below route to it. missed marks ops the mcu rung saw
	// reconfigure the fabric, decoded those of them that decompressed
	// the bitstream from ROM rather than reusing cached frames.
	card    []int
	missed  []bool
	decoded []bool
	labels  []string // span label per op: "sha256", "fir16->fft64"
	pciPS   sim.Time // PCI time of single calls at the core rung (virtual)
}

func newLadder(w *workload, ops []op) *ladder {
	n := len(ops)
	l := &ladder{
		w: w, ops: ops, epoch: now(),
		card: make([]int, n), missed: make([]bool, n), decoded: make([]bool, n), labels: make([]string, n),
	}
	for i, o := range ops {
		names := make([]string, len(o.fns))
		for k, fn := range o.fns {
			names[k] = bank[fn].Name()
		}
		l.labels[i] = strings.Join(names, "->")
	}
	return l
}

// bank resolves function ids once: algos.ByName rebuilds the bank on
// every call, which would show inside the algos rung's spans.
var bank = func() map[uint16]*algos.Function {
	m := make(map[uint16]*algos.Function)
	for _, f := range algos.Bank() {
		m[f.ID()] = f
	}
	return m
}()

// rungs lists w's ladder, outermost first.
func (w *workload) rungs() []rung {
	top := func(ctx context.Context, _ *ladder, s *stack, _ int, o *op) error { return s.do(ctx, o) }
	var rs []rung
	if w.router {
		rs = append(rs, rung{"router", layerRouter, top})
	}
	if w.backends > 0 {
		rs = append(rs,
			rung{"client", layerClient, top},
			rung{"server", layerServer, serverCall},
			rung{"cluster", layerCluster, clusterCall})
	}
	return append(rs,
		rung{"core", layerCore, func(_ context.Context, l *ladder, s *stack, i int, o *op) error {
			return l.coreCall(s.cards[l.w.backendOf(o.fns[0])][l.card[i]], i, o)
		}},
		rung{"mcu", layerCore, func(_ context.Context, l *ladder, s *stack, i int, o *op) error {
			return l.mcuCall(s.cards[l.w.backendOf(o.fns[0])][l.card[i]].Controller(), i, o)
		}},
		rung{"algos", layerCore, algosCall})
}

// serverCall speaks the wire protocol over a raw connection: the
// server's whole cost without the client mux.
func serverCall(_ context.Context, l *ladder, s *stack, i int, o *op) error {
	conn := s.conns[l.w.backendOf(o.fns[0])]
	if err := wire.WriteRequest(conn, &wire.Request{ID: uint64(i) + 1, Fn: o.fns[0], Payload: o.in[0]}); err != nil {
		return err
	}
	resp, err := wire.ReadResponse(conn)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("server answered %s: %s", resp.Status, resp.Payload)
	}
	return verify(o, 0, resp.Payload)
}

func clusterCall(ctx context.Context, l *ladder, s *stack, i int, o *op) error {
	cl := s.backends[l.w.backendOf(o.fns[0])].cluster
	res, card, err := cl.SubmitContext(ctx, o.fns[0], o.in[0], true).Wait()
	if err != nil {
		return err
	}
	l.card[i] = card
	return verify(o, 0, res.Output)
}

func (l *ladder) coreCall(cp *core.CoProcessor, i int, o *op) error {
	if o.kind != kindCall {
		return coreDo(cp, o)
	}
	res, err := cp.CallID(o.fns[0], o.in[0])
	if err != nil {
		return err
	}
	l.pciPS += res.Breakdown.Get(sim.PhasePCI)
	return verify(o, 0, res.Output)
}

// mcuCall enters below the host driver and the PCI model: the card's
// microcontroller directly, item by item.
func (l *ladder) mcuCall(ctrl *mcu.Controller, i int, o *op) error {
	before := ctrl.Stats()
	for item, in := range o.in {
		var out []byte
		var err error
		if len(o.fns) > 1 {
			out, _, _, err = ctrl.ExecuteChain(o.fns, in)
		} else {
			out, _, err = ctrl.Execute(o.fns[0], in)
		}
		if err != nil {
			return err
		}
		if err := verify(o, item, out); err != nil {
			return err
		}
	}
	after := ctrl.Stats()
	l.missed[i] = after.Misses > before.Misses
	l.decoded[i] = l.missed[i] && after.DecompCacheHits == before.DecompCacheHits
	return nil
}

// algosCall is the behavioural core alone: the floor of the ladder.
func algosCall(_ context.Context, _ *ladder, _ *stack, _ int, o *op) error {
	for item, out := range o.in {
		for _, fn := range o.fns {
			var err error
			if out, err = bank[fn].Exec(out); err != nil {
				return err
			}
		}
		if err := verify(o, item, out); err != nil {
			return err
		}
	}
	return nil
}

// climb replays the ladder's ops into one rung on a fresh stack,
// recording one span per op, and returns the span durations in ns.
func (l *ladder) climb(ctx context.Context, r rung, parent string, t *tally) ([]int64, error) {
	s, err := newStack(l.w, r.build, nil)
	if err != nil {
		return nil, fmt.Errorf("%s rung: %w", r.layer, err)
	}
	defer s.close()
	durs := make([]int64, 0, len(l.ops))
	l.spans = slices.Grow(l.spans, len(l.ops))
	for i := range l.ops {
		o := &l.ops[i]
		t0 := now()
		err := r.call(ctx, l, s, i, o)
		durs = append(durs, l.record(r.layer, parent, i, t0))
		t.record(o, err)
	}
	return durs, s.checkInvariants()
}

// record closes the span opened at t0 and returns its duration in ns.
func (l *ladder) record(layer, parent string, i int, t0 time.Time) int64 {
	t1 := now()
	l.spans = append(l.spans, span{
		Layer: layer, Op: i, Fn: l.labels[i], Parent: parent,
		StartNS: t0.Sub(l.epoch).Nanoseconds(), EndNS: t1.Sub(l.epoch).Nanoseconds(),
	})
	return t1.Sub(t0).Nanoseconds()
}

// recordCost prices the tracing itself: the ns one span costs — two
// clock reads and the append — measured directly. The difference of a
// traced and an untraced pass would drown it: two passes of identical
// code differ by more than 10% on their own here.
func (l *ladder) recordCost() float64 {
	const n = 1 << 15
	kept := l.spans
	l.spans = make([]span, 0, n)
	begin := now()
	for range n {
		l.record("trace", "", 0, now())
	}
	cost := float64(now().Sub(begin).Nanoseconds()) / n
	l.spans = kept
	return cost
}

// selfTimes derives each rung's self time in ns from per-op span
// durations, outermost rung first: the median over the included ops of
// (rung span − span of the rung below); the innermost rung's self time
// is its own median span.
func selfTimes(durs [][]int64, include func(op int) bool) []float64 {
	self := make([]float64, len(durs))
	for k := range durs {
		var diffs []float64
		for i, d := range durs[k] {
			if !include(i) {
				continue
			}
			if k+1 < len(durs) {
				d -= durs[k+1][i]
			}
			diffs = append(diffs, float64(d))
		}
		self[k] = median(diffs)
	}
	return self
}

// medianWhere is the median span in µs over the ops pick selects.
func medianWhere(durs []int64, pick func(op int) bool) float64 {
	var vals []float64
	for i, d := range durs {
		if pick(i) {
			vals = append(vals, float64(d)/1e3)
		}
	}
	return median(vals)
}

// run climbs every rung and fills the ladder's per-layer metrics.
func (l *ladder) run(ctx context.Context, t *tally, out map[string]float64) error {
	rungs := l.w.rungs()
	durs := make([][]int64, len(rungs))
	parent := ""
	for k, r := range rungs {
		var err error
		if durs[k], err = l.climb(ctx, r, parent, t); err != nil {
			return err
		}
		parent = r.layer
	}

	kind := func(k opKind) func(int) bool { return func(i int) bool { return l.ops[i].kind == k } }
	single := kind(kindCall)
	self := selfTimes(durs, single)
	var sum float64
	for k, r := range rungs {
		name := r.layer + ".self_us"
		if r.layer == "algos" {
			name = "algos.exec_us"
		}
		out[name] = self[k] / 1e3
		sum += self[k] / 1e3
	}
	out["ladder.top_us"] = medianWhere(durs[0], single)
	if top := out["ladder.top_us"]; top > 0 {
		out["ladder.closure"] = sum / top
		out["trace.overhead_frac"] = l.recordCost() / 1e3 / top
	}

	iCore, iMCU, iAlgos := len(rungs)-3, len(rungs)-2, len(rungs)-1
	out["mcu.hit_us"] = medianWhere(durs[iMCU], func(i int) bool { return single(i) && !l.missed[i] })
	out["mcu.miss_us"] = medianWhere(durs[iMCU], func(i int) bool { return single(i) && l.missed[i] })
	var execNS int64
	var inBytes, singles int
	for i, d := range durs[iAlgos] {
		execNS += d
		inBytes += l.ops[i].inBytes()
		if single(i) {
			singles++
		}
	}
	if execNS > 0 {
		out["algos.exec_MBps"] = float64(inBytes) * 1e3 / float64(execNS)
	}
	if l.w.mix {
		out["core.batch_us_per_item"] = medianWhere(durs[iCore], kind(kindBatch)) / mixItems
		out["core.chain_us"] = medianWhere(durs[iCore], kind(kindChain))
		out["core.chain_batch_us_per_item"] = medianWhere(durs[iCore], kind(kindChainBatch)) / mixItems
		out["virt.pci_us"] = l.pciPS.Microseconds() / float64(max(singles, 1))
	}
	return l.components(durs[iMCU], out)
}

// components times, stand-alone, the pieces of work a cold load is made
// of — once per cold load the mcu rung observed, for the function it
// loaded: window-by-window decompression (unless that load reused
// cached frames), bitstream assembly, the configuration-port write.
// What is left of the load's mcu span after those and a hit's worth of
// execution is the mini OS's own: placement, eviction, tables, copies.
func (l *ladder) components(mcuNS []int64, out map[string]float64) error {
	geom := l.w.cardConfig(nil).Geometry
	codec, err := compress.New("framediff", geom.FrameBytes())
	if err != nil {
		return err
	}
	fab := fpga.NewFabric(geom, fpga.NewRegistry())
	type image struct {
		blob   []byte
		frames []int
	}
	images := make(map[uint16]image)
	window := make([]byte, mcu.DefaultWindowBytes)
	var decode, assemble, port, rest []float64
	var rawBytes int
	for i := range l.ops {
		o := &l.ops[i]
		if !l.missed[i] || o.kind != kindCall {
			continue
		}
		left := float64(mcuNS[i])/1e3 - out["mcu.hit_us"]
		took := func(us []float64) { left -= us[len(us)-1] }
		fn := o.fns[0]
		img, ok := images[fn]
		if !ok {
			rec, blob, err := core.BuildImage(geom, bank[fn], codec, 1)
			if err != nil {
				return err
			}
			img.blob = blob
			for f := range int(rec.FrameCount) {
				img.frames = append(img.frames, f)
			}
			images[fn] = img
		}
		if l.decoded[i] {
			if err := l.timed("compress", i, &decode, func() error {
				rd, err := codec.NewReader(img.blob)
				if err != nil {
					return err
				}
				for {
					n, err := rd.Read(window)
					rawBytes += n
					if errors.Is(err, io.EOF) {
						return nil
					}
					if err != nil {
						return err
					}
				}
			}); err != nil {
				return err
			}
			took(decode)
		}
		raw, err := codec.Decompress(img.blob)
		if err != nil {
			return err
		}
		frames := make([][]byte, len(img.frames))
		for f := range frames {
			frames[f] = raw[f*geom.FrameBytes() : (f+1)*geom.FrameBytes()]
		}
		var stream []byte
		if err := l.timed("bitstream", i, &assemble, func() (err error) {
			stream, err = bitstream.Assemble(geom, fab.IDCode(), img.frames, frames)
			return err
		}); err != nil {
			return err
		}
		took(assemble)
		if err := l.timed("fpga", i, &port, func() error {
			fab.Port().Reset()
			_, err := fab.Port().Write(stream)
			return err
		}); err != nil {
			return err
		}
		took(port)
		rest = append(rest, left)
	}
	out["compress.decode_us_per_load"] = median(decode)
	out["bitstream.assemble_us_per_load"] = median(assemble)
	out["fpga.port_write_us_per_load"] = median(port)
	var decodeUS float64
	for _, d := range decode {
		decodeUS += d
	}
	if decodeUS > 0 {
		out["compress.decode_MBps"] = float64(rawBytes) / decodeUS
	}
	out["mcu.minios_self_us"] = median(rest)
	return l.wireCodec(out)
}

// timed runs f as one span of a stand-alone component rung and appends
// its duration in µs.
func (l *ladder) timed(layer string, i int, us *[]float64, f func() error) error {
	t0 := now()
	err := f()
	*us = append(*us, float64(l.record(layer, "mcu", i, t0))/1e3)
	return err
}

// wireCodec prices the frame codec alone: encode and decode of the
// request and the response of every single call, no socket.
func (l *ladder) wireCodec(out map[string]float64) error {
	const reps = 20
	var buf []byte
	var req wire.Request
	var resp wire.Response
	var frames, bytes int
	t0 := now()
	for range reps {
		for i := range l.ops {
			o := &l.ops[i]
			if o.kind != kindCall {
				continue
			}
			buf = wire.AppendRequest(buf[:0], &wire.Request{ID: uint64(i), Fn: o.fns[0], Payload: o.in[0]})
			bytes += len(buf)
			if _, err := wire.DecodeRequestInto(&req, buf); err != nil {
				return err
			}
			buf = wire.AppendResponse(buf[:0], &wire.Response{ID: uint64(i), Status: wire.StatusOK, Payload: o.want[0]})
			bytes += len(buf)
			if _, err := wire.DecodeResponseInto(&resp, buf); err != nil {
				return err
			}
			frames++
		}
	}
	elapsed := now().Sub(t0)
	if frames > 0 {
		out["wire.codec_ns_per_op"] = float64(elapsed.Nanoseconds()) / float64(frames)
		out["wire.bytes_per_op"] = float64(bytes) / float64(frames)
	}
	return nil
}
