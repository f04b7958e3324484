package fpga

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Bitstream wire format. Words travel big-endian through the byte-wide
// configuration port, as on SelectMAP. The format mirrors the Virtex-II
// packet scheme closely enough that every control path the paper relies on
// (device check, frame addressing, partial loads, CRC protection) exists.
const (
	// SyncWord marks the start of packet processing.
	SyncWord = 0xAA995566
	// DummyWord is the pad word accepted before sync.
	DummyWord = 0xFFFFFFFF
)

// Configuration registers addressed by type-1 packets.
const (
	RegCRC    = 0 // write: compare against running CRC, then reset it
	RegFAR    = 1 // frame address register
	RegFDRI   = 2 // frame data input; word count = payload length
	RegCMD    = 3 // command register
	RegCTL    = 4 // control (accepted, ignored)
	RegMASK   = 5 // control mask (accepted, ignored)
	RegSTAT   = 6 // status (read-only; writes are an error)
	RegCOR    = 7 // configuration options (accepted, ignored)
	RegIDCODE = 8 // device identity check; must precede FDRI
	RegFLR    = 9 // frame length register, in words; must match geometry
	numRegs   = 10
)

// Command-register values.
const (
	CmdNull   = 0
	CmdWCFG   = 1  // enable configuration writes
	CmdLFRM   = 3  // last frame: close the write session
	CmdRCRC   = 7  // reset the running CRC
	CmdDESYNC = 13 // leave packet mode; a new SyncWord is required
)

// MakeType1 builds a type-1 packet header for op (OpWrite/OpNop) on
// register reg with a payload of count words. Count must fit in 11 bits.
func MakeType1(op, reg, count int) uint32 {
	return 1<<29 | uint32(op&3)<<27 | uint32(reg&0x1F)<<13 | uint32(count&0x7FF)
}

// Packet header opcodes.
const (
	OpNop   = 0
	OpRead  = 1
	OpWrite = 2
)

// parseType1 splits a packet header word.
func parseType1(w uint32) (typ, op, reg, count int) {
	return int(w >> 29), int(w >> 27 & 3), int(w >> 13 & 0x1F), int(w & 0x7FF)
}

// Configuration port errors.
var (
	ErrBadPacket    = errors.New("fpga: malformed configuration packet")
	ErrIDCODE       = errors.New("fpga: bitstream IDCODE does not match device")
	ErrFrameLength  = errors.New("fpga: bitstream frame length does not match device")
	ErrCRC          = errors.New("fpga: configuration CRC mismatch")
	ErrNoWCFG       = errors.New("fpga: frame data received outside a WCFG session")
	ErrNoIDCheck    = errors.New("fpga: frame data received before IDCODE check")
	ErrFrameAddress = errors.New("fpga: frame address out of range")
)

// port FSM states.
const (
	stUnsynced = iota
	stHeader   // expecting a packet header
	stData     // consuming FDRI payload words
)

// ConfigPort is the byte-wide configuration interface of the fabric. It
// implements io.Writer; callers stream bitstream bytes (for example the
// mini-OS configuration module, window by window) and the port parses
// packets, performs register writes, and commits frame data into the
// fabric's configuration memory.
//
// Timing: each byte costs one cycle of the configuration clock domain;
// cycle counts accumulate until the caller harvests them with TakeCycles.
type ConfigPort struct {
	fab *Fabric

	state   int
	wordBuf [4]byte
	wordLen int

	// packet consumption
	dataReg   int // register receiving payload words
	dataLeft  int // payload words still expected
	wcfg      bool
	idChecked bool
	far       int    // current frame address
	frameOff  int    // byte offset within the frame being filled
	frame     []byte // staging for a frame that arrives in pieces

	crc     uint32
	crcBuf  []byte // CRCUpdateBurst scratch, kept across writes
	touched []int  // frames written since last RCRC, for corruption marking

	fault  error
	cycles uint64

	// FramesWritten counts frames committed to configuration memory over
	// the port's lifetime.
	FramesWritten uint64
}

// TakeCycles returns the accumulated cycle count and resets it.
func (p *ConfigPort) TakeCycles() uint64 {
	c := p.cycles
	p.cycles = 0
	return c
}

// Reset clears the port FSM, any sticky fault and the unharvested cycle
// count, so a session that failed is never billed to the next one.
// Configuration memory is left as-is (matching a PROG_B-less resync rather
// than a full reset).
func (p *ConfigPort) Reset() {
	p.state = stUnsynced
	p.wordLen = 0
	p.dataLeft = 0
	p.wcfg = false
	p.idChecked = false
	p.frameOff = 0
	p.crc = 0
	p.touched = p.touched[:0]
	p.fault = nil
	p.cycles = 0
}

// Write streams bitstream bytes into the port. It always consumes all of
// data (charging one configuration cycle per byte, as a real byte-wide
// port would clock them in) and reports the first fault encountered, which
// is also kept sticky: a faulted port ignores further data until Reset.
//
// Headers and register writes are parsed a word at a time. FDRI payload
// that arrives word-aligned moves as a burst — one CRC fold and
// frame-sized copies for however much of the packet data holds — and a
// word that straddles two Writes goes through the same routine alone.
func (p *ConfigPort) Write(data []byte) (int, error) {
	n := len(data)
	p.cycles += uint64(n)
	if p.fault != nil {
		return n, p.fault
	}
	for len(data) > 0 {
		var err error
		if words := min(p.dataLeft, len(data)/4); p.state == stData && p.dataReg == RegFDRI && p.wordLen == 0 && words > 0 {
			err = p.frameData(data[:4*words])
			data = data[4*words:]
		} else {
			c := copy(p.wordBuf[p.wordLen:], data)
			data = data[c:]
			if p.wordLen += c; p.wordLen < 4 {
				break
			}
			p.wordLen = 0
			err = p.word(binary.BigEndian.Uint32(p.wordBuf[:]))
		}
		if err != nil {
			p.fail(err)
			return n, err
		}
	}
	return n, nil
}

// fail records a sticky fault and corrupts the signature of every frame
// touched in the failed session, so a half-applied configuration can never
// be activated.
func (p *ConfigPort) fail(err error) {
	p.fault = err
	for _, fi := range p.touched {
		f := p.fab.cfg[fi]
		if len(f) >= SigBytes {
			f[sigOffCRC] ^= 0xFF // invalidate the signature CRC
		}
	}
	p.touched = p.touched[:0]
}

func (p *ConfigPort) word(w uint32) error {
	switch p.state {
	case stUnsynced:
		if w == SyncWord {
			p.state = stHeader
		}
		// Anything else before sync is scanned past, like real hardware.
		return nil

	case stData:
		return p.dataWord(w)

	case stHeader:
		typ, op, reg, count := parseType1(w)
		if w == DummyWord || (typ == 0 && op == OpNop) {
			return nil // pad / NOP
		}
		if typ != 1 {
			return fmt.Errorf("%w: unsupported packet type %d", ErrBadPacket, typ)
		}
		switch op {
		case OpNop:
			return nil
		case OpRead:
			return fmt.Errorf("%w: reads not supported through write port", ErrBadPacket)
		case OpWrite:
		default:
			return fmt.Errorf("%w: bad opcode %d", ErrBadPacket, op)
		}
		if reg >= numRegs {
			return fmt.Errorf("%w: register %d", ErrBadPacket, reg)
		}
		if reg == RegSTAT {
			return fmt.Errorf("%w: STAT is read-only", ErrBadPacket)
		}
		if count == 0 {
			return nil
		}
		p.dataReg = reg
		p.dataLeft = count
		p.state = stData
		return nil
	}
	return fmt.Errorf("%w: bad port state %d", ErrBadPacket, p.state)
}

// dataWord consumes one payload word; w is wordBuf decoded.
func (p *ConfigPort) dataWord(w uint32) error {
	if p.dataReg == RegFDRI {
		return p.frameData(p.wordBuf[:])
	}
	p.dataLeft--
	if p.dataLeft == 0 {
		p.state = stHeader
	}
	if p.dataReg != RegCRC {
		p.crc = CRCUpdateBurst(p.crc, p.dataReg, p.wordBuf[:], &p.crcBuf)
	}
	switch p.dataReg {
	case RegCRC:
		if w != p.crc {
			return fmt.Errorf("%w: got %08x, want %08x", ErrCRC, w, p.crc)
		}
		p.crc = 0
		p.touched = p.touched[:0]
		return nil
	case RegFAR:
		if int(w) >= p.fab.geom.NumFrames() {
			return fmt.Errorf("%w: %d (device has %d frames)", ErrFrameAddress, w, p.fab.geom.NumFrames())
		}
		p.far = int(w)
		p.frameOff = 0
		return nil
	case RegCMD:
		return p.command(w)
	case RegIDCODE:
		if w != p.fab.IDCode() {
			return fmt.Errorf("%w: bitstream %08x, device %08x", ErrIDCODE, w, p.fab.IDCode())
		}
		p.idChecked = true
		return nil
	case RegFLR:
		if int(w) != p.fab.geom.FrameWords() {
			return fmt.Errorf("%w: bitstream %d words, device %d", ErrFrameLength, w, p.fab.geom.FrameWords())
		}
		return nil
	case RegCTL, RegMASK, RegCOR:
		return nil // accepted, no behaviour modelled
	}
	return fmt.Errorf("%w: payload for register %d", ErrBadPacket, p.dataReg)
}

func (p *ConfigPort) command(w uint32) error {
	switch w {
	case CmdNull:
		return nil
	case CmdWCFG:
		p.wcfg = true
		return nil
	case CmdLFRM:
		if p.frameOff != 0 {
			return fmt.Errorf("%w: LFRM with partial frame (%d bytes pending)", ErrBadPacket, p.frameOff)
		}
		p.wcfg = false
		return nil
	case CmdRCRC:
		p.crc = 0
		p.touched = p.touched[:0]
		return nil
	case CmdDESYNC:
		if p.frameOff != 0 {
			return fmt.Errorf("%w: DESYNC with partial frame", ErrBadPacket)
		}
		p.state = stUnsynced
		p.wcfg = false
		return nil
	default:
		return fmt.Errorf("%w: unknown command %d", ErrBadPacket, w)
	}
}

// frameData consumes whole words of FDRI payload: it folds them into the
// running CRC in one pass and fills frames at the auto-incrementing FAR. A
// frame that payload holds completely is copied straight into
// configuration memory; one that arrives in pieces is staged and committed
// when its last byte lands, so a partial frame never reaches the fabric.
func (p *ConfigPort) frameData(payload []byte) error {
	p.dataLeft -= len(payload) / 4
	if p.dataLeft == 0 {
		p.state = stHeader
	}
	p.crc = CRCUpdateBurst(p.crc, RegFDRI, payload, &p.crcBuf)
	if !p.wcfg {
		return ErrNoWCFG
	}
	if !p.idChecked {
		return ErrNoIDCheck
	}
	fb := p.fab.geom.FrameBytes()
	pad := 4*p.fab.geom.FrameWords() - fb // bytes of the final padded word that are dropped
	for len(payload) > 0 {
		take := min(fb-p.frameOff, len(payload))
		src := payload[:take]
		payload = payload[take:]
		if take < fb {
			copy(p.frame[p.frameOff:], src)
			if p.frameOff += take; p.frameOff < fb {
				break
			}
			src = p.frame
		}
		// Frames fill from a word boundary, so whole-word payload that
		// completes one always carries that frame's pad bytes too.
		payload = payload[pad:]
		if p.far >= p.fab.geom.NumFrames() {
			return fmt.Errorf("%w: auto-incremented past device end", ErrFrameAddress)
		}
		copy(p.fab.cfg[p.far], src)
		p.touched = append(p.touched, p.far)
		p.fab.generation[p.far]++
		p.FramesWritten++
		p.far++ // auto-increment, as the FAR does during multi-frame FDRI bursts
		p.frameOff = 0
	}
	return nil
}
