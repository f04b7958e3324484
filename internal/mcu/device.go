package mcu

import (
	"encoding/binary"
	"errors"
	"fmt"

	"agilefpga/internal/memory"
	"agilefpga/internal/pci"
)

// The controller's PCI target face. BAR0 is the command mailbox; BAR1 is
// a window onto local RAM (inputs in the lower half, outputs in the upper
// half). The host protocol per request is:
//
//  1. burst-write the input into BAR1 at offset 0
//  2. write ARG0 = function id, ARG1 = input length
//  3. write CMD = CmdExec — the command runs synchronously on the card
//  4. read STATUS (StatusOK / StatusError), RESULTLEN
//  5. burst-read the output from BAR1 at OutWindowOff
//
// The one-request-at-a-time synchronous mailbox matches the paper's
// host-issues-instructions-over-PCI model.

// BAR0 register offsets.
const (
	RegCMD       = 0x00
	RegARG0      = 0x04
	RegARG1      = 0x08
	RegSTATUS    = 0x0C
	RegRESULTLEN = 0x10
	RegERRCODE   = 0x14
	RegFREEFRM   = 0x18 // free frame count (read-only telemetry)
	RegREQS      = 0x1C // request counter (read-only telemetry)
	RegCHAIN     = 0x20 // chain stage latch: write (index<<16)|fnID
	bar0Bytes    = 0x24
)

// Mailbox commands.
const (
	CmdNop    = 0
	CmdExec   = 1 // ARG0 = fn id, ARG1 = input length
	CmdEvict  = 2 // ARG0 = fn id
	CmdQuery  = 3 // ARG0 = fn id → STATUS = StatusResident / StatusAbsent
	CmdScrub  = 4 // RESULTLEN = frames repaired
	CmdDefrag = 5 // RESULTLEN = functions moved
	// CmdExecChain runs the functions latched through RegCHAIN as one
	// on-fabric dataflow chain. ARG0 = stage count, ARG1 = input length;
	// input and final output use the same BAR1 windows as CmdExec —
	// intermediate results never leave the card.
	CmdExecChain = 6
)

// STATUS values (0 until the first command completes).
const (
	StatusOK       = 1
	StatusError    = 2
	StatusResident = 3
	StatusAbsent   = 4
)

// Error codes surfaced in ERRCODE.
const (
	ErrCodeNone       = 0
	ErrCodeNoRecord   = 1
	ErrCodeTooLarge   = 2
	ErrCodeNoCapacity = 3
	ErrCodeBadInput   = 4
	ErrCodeInternal   = 5
)

// mailbox holds the BAR0 register file.
type mailbox struct {
	arg0, arg1 uint32
	status     uint32
	resultLen  uint32
	errCode    uint32
	// chain is the stage latch CmdExecChain executes from, filled one
	// stage at a time through RegCHAIN writes. It persists across
	// commands, so a batch of same-chain items latches the stages once.
	chain [MaxChainStages]uint16
}

// OutWindowOff reports the BAR1 offset of the output staging window.
func (c *Controller) OutWindowOff() uint32 { return uint32(c.ram.Capacity() / 2) }

// InWindowBytes reports the size of the BAR1 input staging window.
func (c *Controller) InWindowBytes() int { return c.ram.Capacity() / 2 }

// BARSize implements pci.Device.
func (c *Controller) BARSize(bar int) uint32 {
	switch bar {
	case 0:
		return bar0Bytes
	case 1:
		return uint32(c.ram.Capacity())
	}
	return 0
}

// ReadBAR implements pci.Device.
func (c *Controller) ReadBAR(bar int, off uint32, p []byte) error {
	switch bar {
	case 0:
		return c.readRegs(off, p)
	case 1:
		return c.ram.Read(int(off), p)
	}
	return fmt.Errorf("%w: BAR%d", pci.ErrBadBAR, bar)
}

// WriteBAR implements pci.Device.
func (c *Controller) WriteBAR(bar int, off uint32, p []byte) error {
	switch bar {
	case 0:
		return c.writeRegs(off, p)
	case 1:
		return c.ram.Write(int(off), p)
	}
	return fmt.Errorf("%w: BAR%d", pci.ErrBadBAR, bar)
}

func (c *Controller) readRegs(off uint32, p []byte) error {
	if off%4 != 0 || len(p)%4 != 0 {
		return fmt.Errorf("mcu: unaligned register read at %#x", off)
	}
	for i := 0; i < len(p); i += 4 {
		var v uint32
		switch off + uint32(i) {
		case RegCMD:
			v = 0
		case RegARG0:
			v = c.regs.arg0
		case RegARG1:
			v = c.regs.arg1
		case RegSTATUS:
			v = c.regs.status
		case RegRESULTLEN:
			v = c.regs.resultLen
		case RegERRCODE:
			v = c.regs.errCode
		case RegFREEFRM:
			v = uint32(len(c.kernel.freeList))
		case RegREQS:
			v = uint32(c.stats.Requests)
		default:
			v = 0
		}
		binary.LittleEndian.PutUint32(p[i:], v)
	}
	return nil
}

func (c *Controller) writeRegs(off uint32, p []byte) error {
	if off%4 != 0 || len(p)%4 != 0 {
		return fmt.Errorf("mcu: unaligned register write at %#x", off)
	}
	for i := 0; i < len(p); i += 4 {
		v := binary.LittleEndian.Uint32(p[i:])
		switch off + uint32(i) {
		case RegARG0:
			c.regs.arg0 = v
		case RegARG1:
			c.regs.arg1 = v
		case RegCMD:
			c.command(v)
		case RegCHAIN:
			if idx := v >> 16; idx < MaxChainStages {
				c.regs.chain[idx] = uint16(v)
			}
		case RegSTATUS, RegRESULTLEN, RegERRCODE, RegFREEFRM, RegREQS:
			// Read-only; writes are ignored, as hardware would.
		}
	}
	return nil
}

// command dispatches a mailbox command synchronously.
func (c *Controller) command(cmd uint32) {
	c.regs.errCode = ErrCodeNone
	switch cmd {
	case CmdNop:
	case CmdExec, CmdExecChain:
		c.cmdExec(cmd == CmdExecChain)
	case CmdEvict:
		if c.Evict(uint16(c.regs.arg0)) {
			c.regs.status = StatusOK
		} else {
			c.regs.status = StatusAbsent
		}
	case CmdQuery:
		if c.Resident(uint16(c.regs.arg0)) {
			c.regs.status = StatusResident
		} else {
			c.regs.status = StatusAbsent
		}
	case CmdScrub:
		rep, err := c.Scrub()
		if err != nil {
			c.fail(ErrCodeInternal)
			return
		}
		c.regs.status = StatusOK
		c.regs.resultLen = uint32(rep.FramesRepaired)
	case CmdDefrag:
		moved, _, err := c.Defrag()
		if err != nil {
			c.fail(ErrCodeInternal)
			return
		}
		c.regs.status = StatusOK
		c.regs.resultLen = uint32(moved)
	default:
		c.fail(ErrCodeInternal)
	}
}

// fail posts a command failure in the mailbox.
func (c *Controller) fail(code uint32) {
	c.regs.status = StatusError
	c.regs.errCode = code
}

// cmdExec is the mailbox face of both execute commands: ARG1 bytes of
// staged input run through the function in ARG0 (CmdExec) or through
// the first ARG0 latched stages (CmdExecChain).
func (c *Controller) cmdExec(chained bool) {
	nstages, n := int(c.regs.arg0), int(c.regs.arg1)
	if n <= 0 || n > c.InWindowBytes() || chained && (nstages < 2 || nstages > MaxChainStages) {
		c.fail(ErrCodeBadInput)
		return
	}
	// The input is viewed in place, not copied: execution never mutates
	// its input, and nothing writes the input window until the next
	// command stages a new one.
	input, err := c.ram.View(0, n)
	if err != nil {
		c.fail(ErrCodeBadInput)
		return
	}
	var out []byte
	if chained {
		out, _, _, err = c.ExecuteChain(c.regs.chain[:nstages], input)
	} else {
		out, _, err = c.Execute(uint16(c.regs.arg0), input)
	}
	if err != nil {
		c.fail(classify(err))
		c.regs.resultLen = 0
		return
	}
	c.regs.status = StatusOK
	c.regs.resultLen = uint32(len(out))
}

func classify(err error) uint32 {
	switch {
	case errors.Is(err, memory.ErrNoRecord):
		return ErrCodeNoRecord
	case errors.Is(err, ErrTooLarge):
		return ErrCodeTooLarge
	case errors.Is(err, ErrNoCapacity):
		return ErrCodeNoCapacity
	case errors.Is(err, ErrRAMWindow), errors.Is(err, ErrBadChain):
		return ErrCodeBadInput
	default:
		return ErrCodeInternal
	}
}

var _ pci.Device = (*Controller)(nil)
