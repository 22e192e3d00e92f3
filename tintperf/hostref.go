package main

import (
	"runtime"
	"time"
)

// Host drift: the speed of a shared 2-vCPU VM wanders by tens of
// percent over minutes. Each run therefore times a fixed reference
// kernel — code of the benchmark's own that touches no program
// package — before the program's first boot and after each teardown,
// while no program goroutine exists, and divides each epoch's
// host-time values by the host speed the kernel measured around that
// epoch. STEADINESS.md has the evidence for this kernel and against
// others, and compares normalised with raw values.

// refNominalNS is the kernel's median duration on the 2-vCPU
// reference VM, so normalised metrics keep the units and magnitude of
// the raw ones.
const refNominalNS = 22e6

// refSamples is how many times the kernel is timed at each epoch
// boundary.
const refSamples = 5

var (
	refTable = make([]uint64, 32<<10) // 256 KiB
	refSink  uint64
)

// refKernel is dependent integer hashing with read-modify-write over
// a 256 KiB table, the shape of the engine, cache and DRAM models.
func refKernel() {
	t := refTable
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & uint64(len(t)-1)
		v := t[j] + x
		if v&3 == 0 {
			acc += v >> 3
		} else {
			acc ^= v
		}
		t[j] = v
	}
	refSink += acc
}

// hostRef collects the kernel's samples (ns) over a run.
type hostRef struct {
	samples []float64
}

// measure times the kernel refSamples times. Callers invoke it only
// while no program goroutine exists; a forced GC first keeps the
// program's garbage from being collected inside a sample.
func (h *hostRef) measure() {
	runtime.GC()
	refKernel() // warm the table into the cache
	for i := 0; i < refSamples; i++ {
		t0 := time.Now()
		refKernel()
		h.samples = append(h.samples, float64(time.Since(t0).Nanoseconds()))
	}
}

// epochSpeed returns how much faster than nominal the host ran the
// kernel around epoch e (1 = nominal, 1.2 = 20% faster): the median
// of the samples taken just before the epoch's first boot and just
// after its teardown.
func (h *hostRef) epochSpeed(e int) float64 {
	m := median(h.samples[e*refSamples : (e+2)*refSamples])
	if m <= 0 {
		return 1
	}
	return refNominalNS / m
}
