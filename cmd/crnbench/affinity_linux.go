//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_{get,set}affinity mask: room for 1024 CPUs.
type cpuMask [16]uint64

// pinProcess restricts every thread of this process — and so every thread it
// creates and every process it starts from now on — to one CPU: the highest
// one it is allowed to use (CPU 0 takes most interrupts). A crnserve launched
// afterwards inherits the mask and sizes its GOMAXPROCS to that one CPU; the
// harness sets its own GOMAXPROCS to match. It returns the CPU chosen.
func pinProcess() (int, error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for w := len(allowed) - 1; w >= 0 && cpu < 0; w-- {
		if allowed[w] != 0 {
			cpu = w*64 + 63 - bits.LeadingZeros64(allowed[w])
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity returned an empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Affinity is per thread and inherited at creation. Two passes over the
	// thread list: a thread spawned during the first pass by a parent not
	// yet narrowed is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited between the listing and the call.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(tid %d, cpu %d): %w", tid, cpu, errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}
