package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is a VM sharing its cores with others:
// the CPU time the same search work takes drifted by up to 45 % between runs
// minutes apart (the whole run slows together), far more than a change worth
// measuring. The calibrator measures that drift with a fixed reference
// kernel, written here and sharing no code with the program under test, run
// between ops throughout the run, and rescales every measured time to what
// it would read on a machine where the kernel takes refKernelMS. A change
// to the program moves its calibrated times exactly as it moves its raw
// times; a slower or faster host moves both the ops and the kernel, the ops
// somewhat more, so calibration takes out about half of the drift, not all.

// refKernelMS is the kernel's median CPU time on the 2-vCPU Xeon VM (2.0
// GHz) the benchmark was tuned on, so calibrated times there read close to
// raw ones.
const refKernelMS = 4.0

// calibrateEvery is the process CPU time between two kernel runs.
const calibrateEvery = 100 * time.Millisecond

// kernelInputs are the reference kernel's fixed inputs, drawn from a fixed
// xorshift stream.
type kernelInputs struct {
	sortSrc, sortBuf []uint32 // 16 Ki words to sort
	// A random graph in compressed sparse rows: 64 Ki vertices of 2 to 14
	// out-edges each, about 2 MiB of edges.
	off, adj, val []uint32
	visit         []uint32 // 8 Ki vertices to visit, in random order
	keys          []uint32 // 16 Ki map keys in [0, 1024)
}

func newKernelInputs() *kernelInputs {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return uint32(x >> 32)
	}
	const vertices = 1 << 16
	k := &kernelInputs{
		sortSrc: make([]uint32, 1<<14), sortBuf: make([]uint32, 1<<14),
		off: make([]uint32, vertices+1), val: make([]uint32, vertices),
		visit: make([]uint32, 1<<13), keys: make([]uint32, 1<<14),
	}
	for i := range k.sortSrc {
		k.sortSrc[i] = next()
	}
	for v := 0; v < vertices; v++ {
		k.off[v] = uint32(len(k.adj))
		for e := next()%13 + 2; e > 0; e-- {
			k.adj = append(k.adj, next()%vertices)
		}
		k.val[v] = next()
	}
	k.off[vertices] = uint32(len(k.adj))
	for i := range k.visit {
		k.visit[i] = next() % vertices
	}
	for i := range k.keys {
		k.keys[i] = next() % 1024
	}
	return k
}

// kernelSink keeps the kernel's results live.
var kernelSink uint64

// run runs the reference kernel once and returns its process CPU time. Its
// three parts stand for what the ops spend their time on: sorting (branchy
// compares in cache-resident data), a data-dependent walk over the edges of
// a graph larger than the private caches (as propagation walks watch lists
// and clauses), and hashing into a short-lived map. Of the kernels tried,
// this mix tracked the ops' own drift closest, pass for pass.
func (k *kernelInputs) run() time.Duration {
	c0 := cpuTime()
	copy(k.sortBuf, k.sortSrc)
	slices.Sort(k.sortBuf)
	s := uint64(k.sortBuf[len(k.sortBuf)/2])
	for _, v := range k.visit {
		for e := k.off[v]; e < k.off[v+1]; e++ {
			w := k.adj[e]
			if k.val[w]&1 == 0 {
				s += uint64(k.val[w])
			} else {
				s ^= uint64(w)
			}
		}
	}
	m := make(map[uint32]uint32, 64)
	for r, key := range k.keys {
		m[key] += uint32(r)
		if len(m) > 512 {
			clear(m)
		}
	}
	kernelSink += s + uint64(len(m))
	return cpuTime() - c0
}

// calibrator runs the kernel every calibrateEvery of process CPU time and
// keeps its times.
type calibrator struct {
	in    *kernelInputs
	last  time.Duration
	times []float64 // ms
	// spent is the process CPU time the kernel runs took.
	spent time.Duration
}

func newCalibrator() *calibrator {
	return &calibrator{in: newKernelInputs()}
}

// tick runs the kernel if calibrateEvery has passed since its last run.
func (c *calibrator) tick() {
	if c == nil {
		return
	}
	if now := cpuTime(); len(c.times) == 0 || now-c.last >= calibrateEvery {
		c.times = append(c.times, ms(c.in.run()))
		c.last = cpuTime()
		c.spent += c.last - now
	}
}

// factor is refKernelMS over the kernel's median time in this run: a
// measured time times factor is the calibrated time.
func (c *calibrator) factor() float64 {
	return refKernelMS / median(c.times)
}
