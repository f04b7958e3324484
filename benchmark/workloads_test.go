package main

import (
	"bytes"
	"slices"
	"testing"
)

func sameTrace(a, b []op) bool {
	return slices.EqualFunc(a, b, func(x, y op) bool {
		return x.kind == y.kind && slices.Equal(x.fns, y.fns) &&
			slices.EqualFunc(x.in, y.in, bytes.Equal) && slices.EqualFunc(x.want, y.want, bytes.Equal)
	})
}

func TestEqualSeedsGiveIdenticalTraces(t *testing.T) {
	for _, w := range workloads {
		a, err := genTrace(w, 2005, 512)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genTrace(w, 2005, 512)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTrace(a, b) {
			t.Errorf("%s: two traces from seed 2005 differ", w.name)
		}
	}
}

func TestDifferentSeedsGiveDifferentTraces(t *testing.T) {
	for _, w := range workloads {
		a, err := genTrace(w, 2005, 512)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genTrace(w, 2006, 512)
		if err != nil {
			t.Fatal(err)
		}
		if sameTrace(a, b) {
			t.Errorf("%s: seeds 2005 and 2006 gave the same trace", w.name)
		}
		fns := func(tr []op) (ids []uint16) {
			for _, o := range tr {
				ids = append(ids, o.fns[0])
			}
			return ids
		}
		if slices.Equal(fns(a), fns(b)) {
			t.Errorf("%s: seeds 2005 and 2006 drew the same function sequence", w.name)
		}
	}
}

func TestTraceShape(t *testing.T) {
	for _, w := range workloads {
		tr, err := genTrace(w, 7, 256)
		if err != nil {
			t.Fatal(err)
		}
		kinds := make(map[opKind]int)
		for _, o := range tr {
			kinds[o.kind]++
			if len(o.in) != len(o.want) || len(o.in) == 0 {
				t.Fatalf("%s: op with %d inputs and %d references", w.name, len(o.in), len(o.want))
			}
			if o.kind == kindCall && !slices.Contains(w.ids, o.fns[0]) {
				t.Errorf("%s: call to function %d outside the catalogue", w.name, o.fns[0])
			}
			if w.payload != 0 && o.kind == kindCall && len(o.in[0]) != w.payload {
				t.Errorf("%s: %d-byte payload, want %d", w.name, len(o.in[0]), w.payload)
			}
		}
		if kinds[kindCall] != 256 {
			t.Errorf("%s: %d single calls, want 256", w.name, kinds[kindCall])
		}
		wantMix := 0
		if w.mix {
			wantMix = 256 / mixWindow
		}
		for _, k := range []opKind{kindBatch, kindChain, kindChainBatch} {
			if kinds[k] != wantMix {
				t.Errorf("%s: %d ops of kind %d, want %d", w.name, kinds[k], k, wantMix)
			}
		}
	}
}

// fleet-hot-small must carry net-hot-small's exact traffic: the
// difference between the two is then the router hop and nothing else.
func TestFleetCarriesTheNetHotSmallTrace(t *testing.T) {
	net, err := workloadByName("net-hot-small")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := workloadByName("fleet-hot-small")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := genTrace(net, 11, 512)
	b, _ := genTrace(fleet, 11, 512)
	if !sameTrace(a, b) {
		t.Error("fleet-hot-small and net-hot-small traces differ for one seed")
	}
}

func TestPrimeOpsCoverTheCatalogueInOrder(t *testing.T) {
	for _, w := range workloads {
		tr, err := genTrace(w, 2005, traceOps)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint16
		for _, o := range primeOps(w, tr) {
			got = append(got, o.fns[0])
		}
		if !slices.Equal(got, w.ids) {
			t.Errorf("%s: prime order %v, want the catalogue %v", w.name, got, w.ids)
		}
	}
}

func TestFleetSplitIsBalancedAndPinnable(t *testing.T) {
	w, err := workloadByName("fleet-hot-small")
	if err != nil {
		t.Fatal(err)
	}
	perBackend := make([]int, w.backends)
	for _, id := range w.ids {
		perBackend[w.backendOf(id)]++
	}
	if perBackend[0] != perBackend[1] {
		t.Errorf("functions per backend %v, want an even split", perBackend)
	}
	// Whatever ephemeral ports the backends got, a ring seed realising
	// the split must exist.
	for _, addrs := range [][]string{
		{"127.0.0.1:40001", "127.0.0.1:40002"},
		{"127.0.0.1:53187", "127.0.0.1:33999"},
	} {
		if _, err := pinSeed(w, addrs); err != nil {
			t.Errorf("addrs %v: %v", addrs, err)
		}
	}
}
