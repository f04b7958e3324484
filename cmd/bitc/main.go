// bitc is the bitstream tool: it synthesises a bank function's
// configuration image for a given geometry, compresses it with each
// codec, verifies the round trip, reports sizes, and burns/inspects ROM
// images — the provisioning path of the co-processor as a standalone
// tool.
//
// Usage:
//
//	bitc -fn aes128                 # one function, all codecs
//	bitc -fn aes128 -dump 64        # plus a hexdump of the image
//	bitc -all -codec framediff      # the whole bank under one codec
//	bitc -burn card.rom             # burn the full bank into a ROM image
//	bitc -rom card.rom              # inspect a burned image
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/exp"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/memory"
)

func main() {
	fnName := flag.String("fn", "", "bank function to compile")
	all := flag.Bool("all", false, "compile the whole bank")
	codecName := flag.String("codec", mcu.DefaultCodec, "codec for -all and -burn")
	rows := flag.Int("rows", fpga.DefaultGeometry.Rows, "fabric rows (CLBs per frame)")
	cols := flag.Int("cols", fpga.DefaultGeometry.Cols, "fabric columns (frames)")
	dump := flag.Int("dump", 0, "hexdump this many bytes of the raw image")
	burn := flag.String("burn", "", "burn the whole bank into a ROM image at this path")
	romPath := flag.String("rom", "", "inspect a burned ROM image")
	romBytes := flag.Int("rombytes", 512*1024, "ROM capacity for -burn")
	flag.Parse()

	g := fpga.Geometry{Rows: *rows, Cols: *cols}
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}

	if *burn != "" {
		burnROM(*burn, g, *codecName, *romBytes)
		return
	}
	if *romPath != "" {
		inspectROM(*romPath)
		return
	}

	if *all {
		tab, err := exp.RunE2PerFunction(*codecName)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(tab.String())
		return
	}
	if *fnName == "" {
		log.Fatal("bitc: -fn <name> or -all required; functions: ", names())
	}
	f, err := algos.ByName(*fnName)
	if err != nil {
		log.Fatal(err)
	}
	images, err := bitstream.Synthesize(g, bitstream.Netlist{
		FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d LUTs → %d frames of %d B on %s\n",
		f.Name(), f.LUTs, len(images), g.FrameBytes(), g)

	var raw []byte
	for _, img := range images {
		raw = append(raw, img...)
	}
	fmt.Printf("raw image: %d B\n\n", len(raw))
	fmt.Printf("%-10s  %8s  %6s  %s\n", "codec", "bytes", "ratio", "round-trip")
	for _, name := range compress.Names() {
		codec, err := compress.New(name, g.FrameBytes())
		if err != nil {
			log.Fatal(err)
		}
		rec, blob, err := core.BuildImage(g, f, codec, 1)
		if err != nil {
			log.Fatal(err)
		}
		back, err := codec.Decompress(blob)
		ok := err == nil && bytes.Equal(back, raw)
		fmt.Printf("%-10s  %8d  %5.2fx  %v\n", name, len(blob),
			float64(rec.RawSize)/float64(len(blob)), ok)
	}

	if *dump > 0 {
		n := *dump
		if n > len(raw) {
			n = len(raw)
		}
		fmt.Printf("\nraw image, first %d bytes:\n", n)
		for i := 0; i < n; i += 16 {
			end := i + 16
			if end > n {
				end = n
			}
			fmt.Printf("%06x  % x\n", i, raw[i:end])
		}
		if sig, ok := fpga.DecodeSignature(raw); ok {
			fmt.Printf("\nframe 0 signature: fn=%d index=%d total=%d serial=%d\n",
				sig.FnID, sig.Index, sig.Total, sig.Serial)
		}
	}
}

func names() []string {
	var out []string
	for _, f := range algos.Bank() {
		out = append(out, f.Name())
	}
	return out
}

// burnROM provisions the full bank onto a fresh card and writes its ROM
// image to path.
func burnROM(path string, g fpga.Geometry, codecName string, romBytes int) {
	cp, err := core.New(core.Config{Geometry: g, Codec: codecName, ROMBytes: romBytes})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		log.Fatal(err)
	}
	rom := cp.Controller().ROM()
	image := rom.Image()
	if err := os.WriteFile(path, image, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("burned %d functions (%s codec) into %s: %d B image, %d B free\n",
		rom.NumRecords(), codecName, path, len(image), rom.FreeBytes())
}

// inspectROM prints the record table of a burned image.
func inspectROM(path string) {
	image, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	rom, err := memory.LoadROM(image)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d B capacity, %d records, %d B free\n\n",
		path, rom.Capacity(), rom.NumRecords(), rom.FreeBytes())
	fmt.Printf("%-12s %5s %7s %8s %8s %7s %6s %6s\n",
		"name", "fn", "codec", "start", "comp B", "raw B", "frames", "serial")
	for _, rec := range rom.Records() {
		codecName, cerr := compress.NameOf(rec.CodecID)
		if cerr != nil {
			codecName = "?"
		}
		fmt.Printf("%-12s %5d %7s %8d %8d %7d %6d %6d\n",
			rec.Name, rec.FnID, codecName, rec.Start, rec.CompSize, rec.RawSize,
			rec.FrameCount, rec.Serial)
	}
}
