package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask, 64 CPUs per word.
type cpuMask []uint64

// affinity returns the CPUs this process may run on.
func affinity() (cpuMask, error) {
	mask := make(cpuMask, 16)
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return mask[:n/8], nil
}

// lastCPU returns a mask holding only the highest-numbered CPU of m (the
// one least likely to serve the host's interrupts) and its number.
func (m cpuMask) lastCPU() (cpuMask, int) {
	one := make(cpuMask, len(m))
	for w := len(m) - 1; w >= 0; w-- {
		for b := 63; b >= 0; b-- {
			if m[w]&(1<<uint(b)) != 0 {
				one[w] = 1 << uint(b)
				return one, w*64 + b
			}
		}
	}
	return m, -1
}

// setAffinity confines every thread of the process to mask. Threads
// started later inherit it from their creator. It makes two passes so that
// a thread started during the first one is caught by the second.
func setAffinity(mask cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}
