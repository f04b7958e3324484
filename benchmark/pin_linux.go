//go:build linux

package main

import (
	"errors"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's CPU bitmap, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func affinity(call, tid uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, tid, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinProcess confines every thread of the process — the Go runtime's
// included — to the first CPU it is allowed on. Threads started later
// inherit the mask from the thread that starts them.
func pinProcess() error {
	var allowed, one cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return err
	}
	for i, word := range allowed {
		if word != 0 {
			one[i] = 1 << bits.TrailingZeros64(word)
			break
		}
	}
	// Twice: a thread born during the first pass from a parent not yet
	// pinned is caught by the second.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), &one); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}
