package main

import (
	"sync"
	"time"
)

// The reference host is a small VM on a shared machine. Its neighbours'
// load slows it by up to 1.8×, in spells from under a second to minutes,
// so the same cells take half as long again in one run as in another
// (README.md, "Host noise"). Taking each cell's least time over its reps
// (see reps) removes the short spells, not the long ones. So a run also
// times a reference kernel — fixed work in the benchmark's own code — and
// scales its host times to the reference host's speed: a time t measured
// while the kernel takes k ms is reported as t × kernelRefMS / k.
//
// The kernel is timed only at quiet points, where the run has stopped
// dispatching and none of its cells is in flight (see quietEvery). So the
// simulator's own load never slows the kernel, and no change to the
// simulator can move the scale: a regression shows in full.
//
// The kernel is a set-associative cache model over 4.5 MB, the kind of
// work the simulator does. Logged beside simulated cells for twenty busy
// minutes on both CPUs of the reference host, it followed the cells'
// slowdown more closely than a cache-resident sort-and-hash kernel or a
// pointer chase did, though the cells still slow about 1.3 times as much
// (in log terms) as it does.

// The reference kernel's geometry and work. They define the reference
// speed: changing one changes every host-time metric, so they never
// change.
const (
	kernelSets   = 1 << 16 // sets of the modelled cache, a power of two
	kernelWays   = 8
	kernelAccess = 22_000 // accesses per run
	// kernelRefMS sets the reference speed: a scaled time is the time on
	// a host where the kernel's lower quartile is 1 ms. On the reference
	// host (2-vCPU Xeon, go1.24) it read 0.85-1.6 ms at quiet points over
	// the hours the benchmark was tuned in.
	kernelRefMS = 1.0
)

// kernelState is the kernel's cache model, allocated once so that a
// timing neither allocates nor triggers garbage collection.
type kernelState struct {
	tags []uint64
	age  []uint8
	x    uint64 // address generator state, carried from run to run
	next uint64 // the walk's next line, carried from run to run
	sink uint64
}

func newKernelState() *kernelState {
	return &kernelState{
		tags: make([]uint64, kernelSets*kernelWays),
		age:  make([]uint8, kernelSets*kernelWays),
		x:    0x9E3779B97F4A7C15,
	}
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// run does the kernel's fixed work once: kernelAccess accesses, three in
// four walking on through the lines where the last run stopped and one in
// four at a random line, each looked up in its set, replacing the set's
// oldest way on a miss and ageing the set's ways. The walk crosses every
// set every few runs, so the model's 4.5 MB stream through the caches as
// the simulator's state does.
func (k *kernelState) run() {
	hits := uint64(0)
	for i := uint64(0); i < kernelAccess; i++ {
		k.x = lcg(k.x)
		line := k.next
		if i&3 == 0 {
			line = k.x >> 28
		} else {
			k.next++
		}
		set := line & (kernelSets - 1)
		tag := line / kernelSets
		ways := k.tags[set*kernelWays : (set+1)*kernelWays]
		age := k.age[set*kernelWays : (set+1)*kernelWays]
		hit := -1
		for w, t := range ways {
			if t == tag+1 {
				hit = w
				break
			}
		}
		if hit >= 0 {
			hits++
		} else {
			hit = 0
			for w := range age {
				if age[w] > age[hit] {
					hit = w
				}
			}
			ways[hit] = tag + 1
		}
		for w := range age {
			if age[w] < 255 {
				age[w]++
			}
		}
		age[hit] = 0
	}
	k.sink += hits
}

// refClock collects timings of the reference kernel. It is safe for
// concurrent use; timings run one at a time on one cache model.
type refClock struct {
	mu     sync.Mutex
	kernel *kernelState
	ms     []float64 // host ms of each timing
}

func newRefClock() *refClock {
	c := &refClock{kernel: newKernelState()}
	c.kernel.run() // page the model in
	return c
}

// quietEvery is how often a run makes a quiet point: it stops
// dispatching, lets the cells in flight finish and times the kernel
// quietTimings times. The host's speed flips every second or so, so a
// run needs quiet points that often for enough of them to meet its fast
// moments; each costs the executors about half a cell.
const (
	quietEvery   = time.Second
	quietTimings = 4
)

// quiet times the kernel quietTimings times and returns when it is done.
// Callers call it only where none of their simulation is in flight: at a
// quiet point, or in a child right after set-up.
func (c *refClock) quiet() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < quietTimings; i++ {
		start := time.Now()
		c.kernel.run()
		c.ms = append(c.ms, ms(time.Since(start)))
	}
	return time.Now()
}

// scale is the factor that takes host times measured over the clock's
// timings to the reference host's speed: kernelRefMS over the lower
// quartile of the timings. A cell's reported time is its least over the
// reps, its time in the host's fast moments, so it is scaled by the
// kernel's time in those moments too, which the lower quartile reads as
// steadily as the least of several timings without resting on one lucky
// one. Without timings it is 0.
func (c *refClock) scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ms) == 0 {
		return 0
	}
	q1, _, _ := quartiles(c.ms)
	return kernelRefMS / q1
}

// reset drops the timings taken so far.
func (c *refClock) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ms = c.ms[:0]
}

// samples is how many timings the clock holds.
func (c *refClock) samples() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ms)
}
