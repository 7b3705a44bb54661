package main

// The yardstick: a small fixed CPU workload that shares no code with
// pdpasim, timed in thread CPU time. The shared machines this benchmark runs
// on change speed by up to 2× for minutes at a time, every workload at once,
// which would swamp any change worth gating. Times and rates are therefore
// reported at the yardstick's nominal speed: a time t measured while a round
// costs r is reported as t × yardstickNominal / r. Raw values are printed
// beside them, and the traced run reports the yardstick itself.
//
// The probe runs only while no code under test does: before set-up starts
// and after the stack has stopped, so it brackets both set-up and the
// window. A probe running beside the window would also slow with the
// contention the measured commit itself causes (for a shared physical core,
// the caches, memory bandwidth), so a commit that kept the cores busier
// would have its times scaled down and part of its regression hidden.
//
// Thread CPU time, not wall time, is what makes the probe usable on a shared
// machine: a round's wall time would include waiting for a core, but its CPU
// time only stretches when the core itself runs slower.

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// yardstickNominal is the median round CPU time on the machine the
	// benchmark was written on; it only sets the scale of reported values.
	yardstickNominal = 2 * time.Millisecond
	// probeSpan is how long each of the two probes runs rounds back to back.
	probeSpan = 300 * time.Millisecond
)

// yardstick holds preallocated inputs, so a round never allocates and the
// heap the workload built cannot change its cost.
type yardstick struct {
	buf    []byte
	src    []int
	sorted []int
	m      map[int]int
	sink   byte
}

func newYardstick() *yardstick {
	y := &yardstick{buf: make([]byte, 16<<10), src: make([]int, 20_000), sorted: make([]int, 20_000), m: make(map[int]int, 10_000)}
	for i := range y.buf {
		y.buf[i] = byte(i * 31)
	}
	for i := range y.src {
		y.src[i] = (i * 7919) % 20_011
	}
	return y
}

// round does the fixed work: hashing, sorting, and map inserts.
func (y *yardstick) round() {
	for i := 0; i < 32; i++ {
		s := sha256.Sum256(y.buf)
		y.sink ^= s[i%len(s)]
	}
	copy(y.sorted, y.src)
	sort.Ints(y.sorted)
	clear(y.m)
	for i := 0; i < 10_000; i++ {
		y.m[y.sorted[i]*3+i] = i
	}
	y.sink ^= byte(len(y.m))
}

// threadCPU is the calling OS thread's CPU time, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which counts nanoseconds
// (getrusage's per-thread times only move in scheduler ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrator collects yardstick rounds.
type calibrator struct {
	ys      []*yardstick // one per thread the probe runs on
	samples []time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for range runtime.GOMAXPROCS(0) {
		c.ys = append(c.ys, newYardstick())
	}
	return c
}

// probe times rounds back to back for probeSpan on every core at once, each
// on its own locked OS thread. The workloads keep every core busy, and a
// core runs slower when its neighbours are busy too (a shared physical
// core, caches and memory bandwidth), so the probe loads them all.
func (c *calibrator) probe() {
	rounds := make([][]time.Duration, len(c.ys))
	end := time.Now().Add(probeSpan)
	var wg sync.WaitGroup
	for k, y := range c.ys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for time.Now().Before(end) {
				start := threadCPU()
				y.round()
				rounds[k] = append(rounds[k], threadCPU()-start)
			}
		}()
	}
	wg.Wait()
	for _, r := range rounds {
		c.samples = append(c.samples, r...)
	}
}

// scale takes a time measured during the window to the yardstick's
// nominal speed: yardstickNominal / the median round.
func (c *calibrator) scale() float64 {
	med := percentile(c.samples, 50)
	if med <= 0 {
		return 1
	}
	return float64(yardstickNominal) / float64(med)
}
