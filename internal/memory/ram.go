package memory

import (
	"errors"
	"fmt"
)

// RAM is the word-addressed local store the microcontroller stages
// function inputs and outputs in (paper §2.3). Accesses are bounds-checked.
type RAM struct {
	data []byte
}

// ErrRAMBounds reports an out-of-range RAM access.
var ErrRAMBounds = errors.New("memory: RAM access out of bounds")

// NewRAM returns a RAM of the given capacity.
func NewRAM(capacity int) (*RAM, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memory: invalid RAM capacity %d", capacity)
	}
	return &RAM{data: make([]byte, capacity)}, nil
}

// Capacity reports the RAM size in bytes.
func (r *RAM) Capacity() int { return len(r.data) }

// Write copies p into RAM at off.
func (r *RAM) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > len(r.data) {
		return fmt.Errorf("%w: write [%d, %d) of %d", ErrRAMBounds, off, off+len(p), len(r.data))
	}
	copy(r.data[off:], p)
	return nil
}

// Read copies len(p) bytes at off into p: the caller supplies the
// storage, as a DMA engine supplies its destination buffer.
func (r *RAM) Read(off int, p []byte) error {
	if err := r.check(off, len(p)); err != nil {
		return err
	}
	copy(p, r.data[off:])
	return nil
}

// View returns the n bytes at off without copying. The slice aliases
// RAM: it is valid until the next Write over that range, and the
// caller must not modify it.
func (r *RAM) View(off, n int) ([]byte, error) {
	if err := r.check(off, n); err != nil {
		return nil, err
	}
	return r.data[off : off+n : off+n], nil
}

// Region returns the n bytes at off for a DMA engine to fill in place —
// the data-input module staging an input, the output-collection module
// collecting a result. The slice aliases RAM like View's.
func (r *RAM) Region(off, n int) ([]byte, error) {
	if err := r.check(off, n); err != nil {
		return nil, err
	}
	return r.data[off : off+n : off+n], nil
}

func (r *RAM) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(r.data) {
		return fmt.Errorf("%w: read [%d, %d) of %d", ErrRAMBounds, off, off+n, len(r.data))
	}
	return nil
}
