package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its cores and memory with
// other tenants, and its speed drifts by 20-50% over tens of seconds
// (NOTES.md, "Host-speed normalisation"). So a run times a fixed kernel,
// independent of the repro module, between its units of work. Each
// unit's time is divided by the host's slowness around it (the kernel's
// time over calRefS, averaged over the samples just before and just
// after the unit), which reports it in reference-host units.
//
// The program's own after-effects must not reach the kernel: work a
// unit leaves running (a GC cycle, a goroutine the daemon started)
// would slow the kernel and be divided out of the unit's own figure. So
// a unit ends only once the process has gone quiet, which charges that
// work to the unit, and a kernel run during which any other thread of
// the process used the CPU is thrown away.

// calRefS is the kernel's time on the reference host; it only sets the
// scale of the reported numbers.
const calRefS = 0.007

// calTables are the kernel's working sets, one per thread: 8 MiB each,
// large enough that the kernel, like the simulator, depends on the
// shared caches and memory.
var calTables [2][]uint64

// calKernel does a fixed amount of read-modify-write work at random
// places in table.
func calKernel(table []uint64) {
	x := uint64(1)
	for i := 0; i < 1_500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>44] += x
	}
}

// calibrator samples the host's speed with the kernel running on as
// many threads (par) as the work it normalises keeps busy: a neighbour
// taking one core slows two-thread work more than one-thread work.
type calibrator struct {
	par  int
	at   []time.Time
	slow []float64
	// dropped counts kernel runs thrown away because the process did
	// other work while they ran.
	dropped int
}

const (
	// The process counts as quiet once it has used less than quietShare
	// of one core in each of quietRuns windows of quietWindow in a row.
	// One window is not enough: when the host takes the core from a
	// thread that is still working, that thread uses no CPU for a few
	// milliseconds.
	quietWindow = 2 * time.Millisecond
	quietRuns   = 5
	quietShare  = 0.1
	// quietMax bounds the wait; work that never stops is left to the
	// kernel runs' own check.
	quietMax = 2 * time.Second
	// foreignShare is the CPU, as a share of one core over a kernel run,
	// that other threads of the process may use before the run is
	// thrown away.
	foreignShare = 0.02
	// calTries bounds the kernel runs per sample; calKeep clean runs
	// are enough.
	calTries = 12
	calKeep  = 3
)

// CPU-time clocks of clock_gettime(2); unlike getrusage, they count
// to the nanosecond.
const (
	processClock = 2 // CLOCK_PROCESS_CPUTIME_ID
	threadClock  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime returns the CPU time used so far by the process or by the
// calling thread.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// quiet waits until the process uses (almost) no CPU and returns the
// moment it went quiet: the end of the unit of work before it.
func quiet() time.Time {
	deadline := time.Now().Add(quietMax)
	var since time.Time
	for runs := 0; runs < quietRuns; {
		t0, c0 := time.Now(), cpuTime(processClock)
		time.Sleep(quietWindow)
		busy, wall := cpuTime(processClock)-c0, time.Since(t0)
		switch {
		case float64(busy) >= quietShare*float64(wall):
			runs = 0
		case runs == 0:
			since, runs = t0, 1
		default:
			runs++
		}
		if t0.After(deadline) {
			return t0
		}
	}
	return since
}

// sample waits for the process to go quiet, then records the host's
// slowness: the time for par concurrent kernels to finish, fastest of
// calKeep clean runs, over calRefS. It returns the moment the process
// went quiet. When no run is clean it records nothing, and the unit is
// normalised by the nearest samples that are.
func (c *calibrator) sample() time.Time {
	end := quiet()
	par := max(1, min(c.par, len(calTables)))
	best, clean, again := math.Inf(1), 0, false
	for try := 0; try < calTries && clean < calKeep; try++ {
		if again {
			// The last run was thrown away: wait for quiet again.
			quiet()
		}
		threadCPU := make([]time.Duration, par)
		c0 := cpuTime(processClock)
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < par; i++ {
			if calTables[i] == nil {
				calTables[i] = make([]uint64, 1<<20)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				tc := cpuTime(threadClock)
				calKernel(calTables[i])
				threadCPU[i] = cpuTime(threadClock) - tc
			}(i)
		}
		wg.Wait()
		d := time.Since(t0)
		foreign := cpuTime(processClock) - c0
		for _, tc := range threadCPU {
			foreign -= tc
		}
		if again = float64(foreign) > foreignShare*float64(d); again {
			c.dropped++
			continue
		}
		clean++
		best = min(best, d.Seconds())
	}
	if clean > 0 {
		c.at = append(c.at, time.Now())
		c.slow = append(c.slow, best/calRefS)
	}
	return end
}

// around returns the slowness around a unit of work that ran from t0 to
// t1: the mean of the last sample taken by t0 and the first taken from
// t1 on, or whichever of the two exists.
func (c *calibrator) around(t0, t1 time.Time) float64 {
	before, after := -1, -1
	for i, at := range c.at {
		if !at.After(t0) {
			before = i
		}
		if after < 0 && !at.Before(t1) {
			after = i
		}
	}
	switch {
	case before >= 0 && after >= 0:
		return (c.slow[before] + c.slow[after]) / 2
	case before >= 0:
		return c.slow[before]
	case after >= 0:
		return c.slow[after]
	}
	return 1
}

// blendS is the duration of a unit of work that keeps par cores busy on
// average, in reference-host seconds: the unit is normalised by a
// slowness interpolated between the one-thread (one) and the all-core
// (all) samples around it, as far towards all-core as par is.
func blendS(one, all *calibrator, par float64, u unit) float64 {
	w := 1.0
	if all.par > one.par {
		w = min(1, max(0, (par-float64(one.par))/float64(all.par-one.par)))
	}
	s1, sN := one.around(u.t0, u.t1), all.around(u.t0, u.t1)
	return u.rawS() / (s1 + w*(sN-s1))
}

// unit is a timed unit of work.
type unit struct {
	t0, t1 time.Time
}

func (u unit) rawS() float64 { return u.t1.Sub(u.t0).Seconds() }

// normS is the unit's duration in reference-host seconds.
func (c *calibrator) normS(u unit) float64 { return u.rawS() / c.around(u.t0, u.t1) }

// normAll returns the durations of us in reference-host and raw seconds.
func (c *calibrator) normAll(us []unit) (norm, raw []float64) {
	for _, u := range us {
		norm, raw = append(norm, c.normS(u)), append(raw, u.rawS())
	}
	return norm, raw
}
