package core

import (
	"bytes"
	"reflect"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/mcu"
	"agilefpga/internal/memory"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

// TestHotCallAllocs pins the degenerate job — one stage, one item, the
// function resident — at what the caller keeps: the Result and the
// output the host reads into, plus the behavioural core's padded copy of
// an input that is not a whole number of its blocks (4 KiB of
// modexp128's 48-byte blocks). The core computes into the card's RAM
// output window. With a metrics registry attached the count is the
// same: a series lookup builds its key on the stack.
// The general runner must not pay for a pipeline, a heap stage list or
// per-batch result slices it has no use for, the PCI register accesses
// must not allocate, and the card reads its staged input in place. A
// warm call reads no ROM: the mini OS takes the record from the
// function's Frame Replacement Table row. The cold first call still
// pays the scan of the ROM record table up to the function's slot, and
// neither call's allocation count depends on that slot.
func TestHotCallAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		only    *algos.Function // installed alone; nil installs the whole bank
		fn      uint16          // called warm
		slot    int             // fn's ROM slot
		max     float64         // allocations per warm call
		metrics bool            // attach a registry
	}{
		{"aes128 alone", algos.AES128(), algos.IDAES128, 0, 2, false},
		{"modexp128 in the bank", nil, algos.IDModExp128, 15, 3, false},
		{"aes128 alone, metrics on", algos.AES128(), algos.IDAES128, 0, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			if tc.metrics {
				cfg.Metrics = metrics.NewRegistry()
			}
			cp := newCP(t, cfg)
			var err error
			if tc.only != nil {
				_, err = cp.Install(tc.only)
			} else {
				_, err = cp.InstallBank()
			}
			if err != nil {
				t.Fatal(err)
			}
			in := make([]byte, 4096)
			cold, err := cp.CallID(tc.fn, in)
			if err != nil {
				t.Fatal(err)
			}
			scan := sim.NewDomain("mcu", mcu.MCUHz).Span(memory.ReadCycles((tc.slot + 1) * memory.RecordBytes))
			if got := cold.Breakdown.Get(sim.PhaseROM); got < scan {
				t.Errorf("cold call's ROM phase = %v, want at least the %d-record scan's %v", got, tc.slot+1, scan)
			}
			res, err := cp.CallID(tc.fn, in)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Breakdown.Get(sim.PhaseROM); got != 0 {
				t.Errorf("warm call's ROM phase = %v, want 0", got)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := cp.CallID(tc.fn, in); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Errorf("warm CallID allocates %.0f times, want at most %.0f", allocs, tc.max)
			}
		})
	}
}

// BenchmarkHotCall is the host cost of one resident call at the
// net-hot-small workload's shape: 256 B through Run into a reused Result
// and destination, on the benchmark stack's card, one sub-benchmark per
// function of that workload.
func BenchmarkHotCall(b *testing.B) {
	cp, _, in := coldCard(b, 0)
	for _, f := range []*algos.Function{algos.SHA256(), algos.CRC32(), algos.FFT(), algos.MD5()} {
		b.Run(f.Name(), func(b *testing.B) {
			job := Job{Stages: []uint16{f.ID()}, Items: [][]byte{in}, Dsts: [][]byte{make([]byte, 0, 1024)}}
			var res Result
			if err := cp.Run(job, &res); err != nil { // warm
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cp.Run(job, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunResetsReusedResult: Run reports only the job it ran into a
// reused Result. A batch leaves Hits and OverlapSaved set, which a
// one-item call never writes, and a rejected job writes nothing after
// the reset.
func TestRunResetsReusedResult(t *testing.T) {
	cp, _, in := coldCard(t, 0)
	crc := []uint16{algos.CRC32().ID()}
	var res Result
	for _, items := range [][][]byte{{in}, {in, in, in}} { // load, then a resident batch
		if err := cp.Run(Job{Stages: crc, Items: items}, &res); err != nil {
			t.Fatal(err)
		}
	}
	if res.Hits != 3 || res.OverlapSaved == 0 {
		t.Fatalf("batch: %d hits, %v overlap saved; want 3 and > 0", res.Hits, res.OverlapSaved)
	}
	if err := cp.Run(Job{Stages: crc, Items: [][]byte{in}}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Hits != 1 || res.OverlapSaved != 0 || len(res.Outputs) != 1 || len(res.Results) != 1 ||
		res.Latency != res.Results[0].Latency || res.SequentialLatency != res.Latency {
		t.Errorf("call after a batch reports %d hits, %v saved, %d outputs, %d results, latency %v, sequential %v",
			res.Hits, res.OverlapSaved, len(res.Outputs), len(res.Results), res.Latency, res.SequentialLatency)
	}
	if err := cp.Run(Job{Stages: crc}, &res); err == nil {
		t.Fatal("empty job accepted")
	}
	if res.Hits != 0 || res.OverlapSaved != 0 || res.Latency != 0 || res.SequentialLatency != 0 ||
		len(res.Outputs) != 0 || len(res.Results) != 0 {
		t.Errorf("rejected job leaves %+v", res)
	}
}

// TestResetClearsEveryExportedField fills every exported field of a
// Result, by reflection, and checks reset leaves each one empty: a field
// added to Result and not to reset's list fails here.
func TestResetClearsEveryExportedField(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		var r Result
		v := reflect.ValueOf(&r).Elem()
		for i := range v.NumField() {
			f, sf := v.Field(i), v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			switch f.Kind() {
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 1, 4))
			case reflect.Int, reflect.Int64:
				f.SetInt(1)
			case reflect.Uint64:
				f.SetUint(1)
			default:
				t.Fatalf("Result.%s is a %v: teach this test to fill it", sf.Name, f.Kind())
			}
		}
		r.reset(n)
		for i := range v.NumField() {
			f, sf := v.Field(i), v.Type().Field(i)
			if sf.IsExported() && (f.Kind() == reflect.Slice && f.Len() != 0 || f.Kind() != reflect.Slice && !f.IsZero()) {
				t.Errorf("reset(%d) leaves Result.%s = %v", n, sf.Name, f)
			}
		}
	}
}

// TestRunIntoDestinationsAllocs pins the dispatcher's shape of the one
// request path at zero allocations: Run into a Result the caller
// reuses, every output read into a destination the caller keeps. The
// core computes into the card's RAM output window and the host reads it
// out into the destination, a chain's attribution reuses the Result's
// storage, and a cold load rewrites the function's Frame Replacement
// Table row in place — for a resident call, a chain, a batch, a chain
// batch and a cold load alike.
func TestRunIntoDestinationsAllocs(t *testing.T) {
	cp, ids, _ := coldCard(t, 0)
	input := func(f *algos.Function, n int) []byte {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i*31) ^ byte(f.ID())
		}
		return in
	}
	dsts := func(n int) [][]byte {
		d := make([][]byte, n)
		for i := range d {
			d[i] = make([]byte, 0, 1024)
		}
		return d
	}
	sha, aes, crc := algos.SHA256(), algos.AES128(), algos.CRC32()
	fir, fft := algos.FIR(), algos.FFT()
	crcs := make([][]byte, 4)
	for i := range crcs {
		crcs[i] = input(crc, 64*(i+1))
	}
	dsp := [][]byte{input(fir, 1024), input(fir, 512), input(fir, 256)}
	cases := []struct {
		name string
		job  Job
	}{
		{"resident call", Job{Stages: []uint16{sha.ID()}, Items: [][]byte{input(sha, 256)}, Dsts: dsts(1)}},
		{"chain", Job{Stages: []uint16{sha.ID(), aes.ID()}, Items: [][]byte{input(sha, 256)}, Dsts: dsts(1)}},
		{"batch", Job{Stages: []uint16{crc.ID()}, Items: crcs, Dsts: dsts(len(crcs))}},
		{"chain batch", Job{Stages: []uint16{fir.ID(), fft.ID()}, Items: dsp, Dsts: dsts(len(dsp))}},
	}
	var res Result
	for _, tc := range cases {
		run := func() {
			if err := cp.Run(tc.job, &res); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: loads, and sizes the Result's storage
		for i, in := range tc.job.Items {
			want := in
			for _, fn := range tc.job.Stages {
				f, _ := algos.ByID(fn)
				want, _ = f.Exec(want)
			}
			out := res.Outputs[i]
			if !bytes.Equal(out, want) {
				t.Fatalf("%s: item %d = %x, want %x", tc.name, i, out, want)
			}
			if &out[:1][0] != &tc.job.Dsts[i][:1][0] {
				t.Errorf("%s: item %d was not read into its destination", tc.name, i)
			}
		}
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("%s: Run into a reused Result and destinations allocates %.0f times, want 0", tc.name, got)
		}
	}

	// Cold loads: evict and run, round-robin over the bank, each on one
	// natural block.
	jobs := make([]Job, len(ids))
	for i, id := range ids {
		f, _ := algos.ByID(id)
		jobs[i] = Job{Stages: []uint16{id}, Items: [][]byte{input(f, f.BlockBytes)}, Dsts: dsts(1)}
	}
	i := 0
	got := testing.AllocsPerRun(len(ids), func() {
		job := jobs[i%len(jobs)]
		i++
		cp.Evict(job.Stages[0])
		if err := cp.Run(job, &res); err != nil {
			t.Fatal(err)
		}
		if res.Hits != 0 {
			t.Fatalf("fn %d hit after its eviction", job.Stages[0])
		}
	})
	if got != 0 {
		t.Errorf("cold load: Run into a reused Result and destination allocates %.0f times, want 0", got)
	}
}
