package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux process CPU clocks. A process clock sums the CPU time of all the
// process's threads; with paravirtualized steal accounting it excludes time
// the hypervisor gave the vCPU to another guest, and like any CPU clock it
// excludes time spent waiting for a CPU. Wall time on a shared 2-vCPU host
// swung by a third between runs minutes apart while steal moved between 2%
// and 25% of CPU time; CPU time does not see either.

// cpuClock is a process CPU clock ID.
type cpuClock int32

// selfCPU is CLOCK_PROCESS_CPUTIME_ID.
const selfCPU cpuClock = 2

// processCPU is the CPU clock of another process (MAKE_PROCESS_CPUCLOCK with
// CPUCLOCK_SCHED): readable for a child of the same user.
func processCPU(pid int) cpuClock { return cpuClock(^int32(pid)<<3 | 2) }

// read returns the clock's current CPU time.
func (c cpuClock) read() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(c), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// cpuMeter sums the CPU clocks of the processes doing a workload's work: the
// benchmark process itself and, on churn-http, the daemon.
type cpuMeter []cpuClock

// now returns the summed CPU time. An unreadable clock (the daemon exited)
// is an error.
func (m cpuMeter) now() (time.Duration, error) {
	var sum time.Duration
	for _, c := range m {
		t, err := c.read()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}
