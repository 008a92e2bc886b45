package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel.
//
// The hosts this benchmark runs on are shared: the speed of code that
// touches memory drifts by 15-25 %, at times 50 %, over minutes with the
// neighbours' load, for every workload alike, while register-only code
// is steady (measured over 25 minutes: block medians of five workloads
// correlate at 0.9 and better with one another and with a pointer
// chase). A wall clock can therefore not hold a bound, however long a
// run measures. The run times this fixed kernel before every repetition
// and after the last, and reports the repetition time as a multiple of
// the kernel's median time in that run; the raw seconds are printed
// beside it.
//
// The kernel is a dependent-load chase through 64 MiB: DRAM latency and
// TLB reach, which is what the neighbours take away. It must never
// change: every committed wall_rel is a multiple of it.
const (
	refBytes   = 64 << 20
	refSteps   = 1 << 20 // per chase, at the full scale
	refSamples = 2       // chases per call
)

// fillCycle makes a[i] the successor of i in one cycle through all of
// a (a full-period LCG over a power-of-two length), whose jumps no
// prefetcher follows.
func fillCycle(a []uint32) {
	mask := uint32(len(a) - 1)
	for i := range a {
		a[i] = (uint32(i)*1664525 + 1013904223) & mask
	}
}

func chase(a []uint32, steps int) uint32 {
	i := uint32(0)
	for k := 0; k < steps; k++ {
		i = a[i]
	}
	return i
}

var refSink uint32

// refSeconds runs the reference kernel and returns the seconds of each
// of its chases. The array is mapped for the call only, so it is in no
// repetition's resident set.
func refSeconds(steps int) ([]float64, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	a := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refBytes/4)
	fillCycle(a)
	out := make([]float64, refSamples)
	for i := range out {
		t0 := time.Now()
		refSink += chase(a, steps)
		out[i] = time.Since(t0).Seconds()
	}
	return out, syscall.Munmap(mem)
}
