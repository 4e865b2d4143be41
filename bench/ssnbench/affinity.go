package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// last returns the highest-numbered CPU in the mask, -1 for none.
func (m *cpuMask) last() int {
	for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
		if m.has(cpu) {
			return cpu
		}
	}
	return -1
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// bindProcess moves every thread of this process onto the CPUs of m. A
// new thread inherits the mask of the thread that creates it, and so does
// a child process, so passes repeat until one finds every thread already
// bound: a thread cloned from an unbound one during a pass is caught by
// the next.
func bindProcess(m cpuMask) error {
	for pass := 0; pass < 100; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		moved := false
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				continue
			}
			cur, err := getAffinity(tid)
			if err == nil && cur == m {
				continue
			}
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err // ESRCH: the thread exited
			}
			moved = true
		}
		if !moved {
			return nil
		}
	}
	return errors.New("threads kept appearing while binding the process to its CPUs")
}

// oneCPU binds the process to the last CPU it may run on and returns a
// function that restores the mask it had. Rounds run bound: the caller and
// the child it spawns then share one CPU and take turns on it, so no
// request waits for a cross-CPU wake-up, and the host's scheduling of the
// other vCPUs stays out of the numbers.
func oneCPU() (restore func() error, err error) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	var one cpuMask
	cpu := all.last()
	if cpu < 0 {
		return nil, errors.New("empty CPU affinity mask")
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := bindProcess(one); err != nil {
		_ = bindProcess(all)
		return nil, err
	}
	return func() error { return bindProcess(all) }, nil
}
