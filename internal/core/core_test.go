package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/fpga"
	"agilefpga/internal/memory"
	"agilefpga/internal/sim"
	"agilefpga/internal/workload"
)

func newCP(t *testing.T, cfg Config) *CoProcessor {
	t.Helper()
	cp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestNewDefaults(t *testing.T) {
	cp := newCP(t, Config{})
	if cp.Codec().Name() != "lz77" {
		t.Errorf("default codec = %q", cp.Codec().Name())
	}
	if cp.Controller().PolicyName() != "lru" {
		t.Errorf("default policy = %q", cp.Controller().PolicyName())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Codec: "zstd"}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := New(Config{Geometry: fpga.Geometry{Rows: 1, Cols: 1}}); err == nil {
		t.Error("degenerate geometry accepted")
	}
}

func TestInstallAndCall(t *testing.T) {
	cp := newCP(t, Config{})
	f := algos.AES128()
	provTime, err := cp.Install(f)
	if err != nil {
		t.Fatal(err)
	}
	if provTime == 0 {
		t.Error("provisioning cost nothing")
	}
	in := []byte("0123456789abcdef")
	res, err := cp.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Exec(in)
	if !bytes.Equal(res.Output, want) {
		t.Error("output mismatch")
	}
	if res.Hit {
		t.Error("cold call reported as hit")
	}
	if res.Breakdown.Get(sim.PhasePCI) == 0 {
		t.Error("no PCI time charged")
	}
	if res.Latency != res.Breakdown.Total() {
		t.Error("Latency != Breakdown total")
	}

	res2, err := cp.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Hit {
		t.Error("second call should hit")
	}
	if res2.Latency >= res.Latency {
		t.Errorf("hot call (%v) not faster than cold call (%v)", res2.Latency, res.Latency)
	}
}

func TestCallUninstalled(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Call("aes128", []byte{1}); err == nil {
		t.Error("call to uninstalled function accepted")
	}
	if _, err := cp.Call("not-a-function", []byte{1}); err == nil {
		t.Error("call to unknown function accepted")
	}
	if _, err := cp.CallID(algos.IDDES, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestInstallBankAndCallEach(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	if got := len(cp.installed); got != len(algos.Bank()) {
		t.Fatalf("installed %d functions", got)
	}
	for _, f := range algos.Bank() {
		in := make([]byte, 2*f.BlockBytes)
		for i := range in {
			in[i] = byte(i*7 + int(f.ID()))
		}
		res, err := cp.Call(f.Name(), in)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		want, _ := f.Exec(in)
		if !bytes.Equal(res.Output, want) {
			t.Errorf("%s: output mismatch", f.Name())
		}
		if err := cp.Controller().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
	}
	st := cp.Stats()
	if st.Requests != uint64(len(algos.Bank())) {
		t.Errorf("requests = %d", st.Requests)
	}
	if st.Evictions == 0 {
		t.Error("bank exceeds the fabric; evictions expected")
	}
}

func TestRunHostMatchesCard(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.SHA256()); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 300)
	for i := range in {
		in[i] = byte(i)
	}
	hostOut, hostTime, err := cp.RunHost("sha256", in)
	if err != nil {
		t.Fatal(err)
	}
	if hostTime == 0 {
		t.Error("host run cost nothing")
	}
	res, err := cp.Call("sha256", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hostOut, res.Output) {
		t.Error("host and card disagree")
	}
}

func TestHotCallOffloadWins(t *testing.T) {
	// Once resident, the card must beat host software on a compute-dense
	// kernel — the headline claim of the paper's §1. Modular
	// exponentiation is the canonical case (cf. the paper's crypto
	// co-processor references); streaming kernels like CRC are PCI-bound
	// and legitimately lose end-to-end, which E6 quantifies.
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.ModExp()); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 24*500) // 500 modexp records
	for i := range in {
		in[i] = byte(i*31 + 7)
	}
	if _, err := cp.Call("modexp64", in[:24]); err != nil { // warm
		t.Fatal(err)
	}
	res, err := cp.Call("modexp64", in)
	if err != nil {
		t.Fatal(err)
	}
	_, hostTime, err := cp.RunHost("modexp64", in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency >= hostTime {
		t.Errorf("hot card call (%v) not faster than host (%v)", res.Latency, hostTime)
	}
}

func TestWorkloadDrivenRun(t *testing.T) {
	cp := newCP(t, Config{Geometry: fpga.Geometry{Rows: 32, Cols: 32}})
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	var ids []uint16
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
	}
	gen, err := workload.NewZipf(ids, 1.1, 77)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 1024)
	for i := 0; i < 150; i++ {
		fn := gen.Next()
		if _, err := cp.CallID(fn, in); err != nil {
			t.Fatalf("request %d (fn %d): %v", i, fn, err)
		}
	}
	st := cp.Stats()
	if st.Requests != 150 {
		t.Errorf("requests = %d", st.Requests)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate run: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if err := cp.Controller().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStatsResetBetweenPhases(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.CRC32()); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Call("crc32", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	cp.ResetStats()
	if cp.Stats().Requests != 0 {
		t.Error("ResetStats failed")
	}
	// Residency survives a stats reset.
	res, err := cp.Call("crc32", []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Error("function lost residency across stats reset")
	}
}

func TestBootFromROMImage(t *testing.T) {
	// Provision one card, burn its ROM, boot a second card from the
	// image: the functions must be callable without Install.
	builder := newCP(t, Config{})
	if _, err := builder.InstallBank(); err != nil {
		t.Fatal(err)
	}
	image := builder.Controller().ROM().Image()

	booted, err := New(Config{ROMImage: image})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(booted.installed); got != len(algos.Bank()) {
		t.Fatalf("booted card knows %d functions", got)
	}
	in := []byte("0123456789abcdef")
	res, err := booted.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := algos.AES128().Exec(in)
	if !bytes.Equal(res.Output, want) {
		t.Error("booted card computes wrong results")
	}
	// Installing more onto a booted card keeps working and bumps serials
	// above the burned ones.
	if err := booted.Controller().CheckInvariants(); err != nil {
		t.Error(err)
	}
	if _, err := New(Config{ROMImage: []byte("garbage")}); err == nil {
		t.Error("garbage ROM image accepted")
	}
	// A well-formed image whose blob does not decode to its record's
	// frames is refused at boot, as Download refuses the blob itself.
	rom, err := memory.NewROM(4096)
	if err != nil {
		t.Fatal(err)
	}
	f := algos.CRC32()
	rec := memory.Record{Name: f.Name(), FnID: f.ID(), CodecID: compress.IDNone,
		InBus: f.InBus, OutBus: f.OutBus, FrameCount: 1, Serial: 1}
	if err := rom.Install(rec, []byte("not a frame")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ROMImage: rom.Image()}); err == nil {
		t.Error("ROM image with an undecodable blob accepted")
	}
}

func TestOversizedInputRejectedHostSide(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.CRC32()); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, cp.Controller().InWindowBytes()+1)
	if _, err := cp.CallID(algos.IDCRC32, huge); !errors.Is(err, ErrInputTooLarge) {
		t.Errorf("oversized input: err = %v, want ErrInputTooLarge", err)
	}
}

// TestOversizedOutputRejectedHostSide: an input that fits the input
// window but whose output — of any stage — would overflow the output
// window is refused before the first bus write, like an oversized
// input, instead of failing on the card: rs255 turns 30 000 B into
// 34 425 B, and through two rs255 stages 25 000 B turns into 28 815 B
// and then 33 150 B, over the 32 KiB window either way. The card stays
// untouched: no request, no error.
func TestOversizedOutputRejectedHostSide(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.RS255()); err != nil {
		t.Fatal(err)
	}
	rs := algos.IDRS255
	for _, tc := range []struct {
		stages []uint16
		n      int
	}{{[]uint16{rs}, 30000}, {[]uint16{rs, rs}, 25000}} {
		in := make([]byte, tc.n)
		if err := cp.CheckInput(tc.stages, in); !errors.Is(err, ErrInputTooLarge) {
			t.Errorf("%d stages, %d B: CheckInput err = %v, want ErrInputTooLarge", len(tc.stages), tc.n, err)
		}
		var res Result
		err := cp.Run(Job{Stages: tc.stages, Items: [][]byte{in}}, &res)
		if !errors.Is(err, ErrInputTooLarge) {
			t.Errorf("%d stages, %d B: Run err = %v, want ErrInputTooLarge", len(tc.stages), tc.n, err)
		}
		if st := cp.Stats(); st.Requests != 0 || st.Errors != 0 {
			t.Errorf("%d stages, %d B: the card saw the job: %d requests, %d errors", len(tc.stages), tc.n, st.Requests, st.Errors)
		}
	}
	// The largest inputs that do fit are accepted and served.
	for _, tc := range []struct {
		stages []uint16
		n      int
	}{{[]uint16{rs}, 128 * 223}, {[]uint16{rs, rs}, 111 * 223}} {
		in := make([]byte, tc.n)
		if err := cp.CheckInput(tc.stages, in); err != nil {
			t.Errorf("%d stages, %d B: %v", len(tc.stages), tc.n, err)
		}
		var res Result
		if err := cp.Run(Job{Stages: tc.stages, Items: [][]byte{in}}, &res); err != nil {
			t.Errorf("%d stages, %d B: %v", len(tc.stages), tc.n, err)
		}
	}
}

// TestCoProcessorConcurrentCalls drives one card from many goroutines:
// the per-card mutex must serialise the host protocol so outputs stay
// correct and the mini-OS invariants hold. Run with -race.
func TestCoProcessorConcurrentCalls(t *testing.T) {
	cp, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fns := []*algos.Function{algos.CRC32(), algos.SHA256(), algos.AES128()}
	for _, f := range fns {
		if _, err := cp.Install(f); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, perG = 8, 20
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				f := fns[(g+i)%len(fns)]
				in := make([]byte, f.BlockBytes)
				in[0], in[1] = byte(g), byte(i)
				want, _ := f.Exec(in)
				res, err := cp.CallID(f.ID(), in)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(res.Output, want) {
					errs <- fmt.Errorf("%s: wrong output under contention", f.Name())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := cp.Stats().Requests; got != goroutines*perG {
		t.Errorf("requests = %d, want %d", got, goroutines*perG)
	}
	if err := cp.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
