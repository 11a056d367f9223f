package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// generatorProcs sets GOMAXPROCS one above the CPU count: the generator
// plays the Data Monitor, a separate process in a deployment, and holds
// the extra P while it sleeps, so the pipeline keeps as many Ps as a
// daemon on this host would have.
func generatorProcs() {
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
}

// epoch anchors every timestamp of a run: one process, one monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// pinGenerator locks the calling goroutine, the generator, to its OS
// thread and sets that thread's timer slack to 1 µs. Go's own timers wake
// a sub-millisecond sleeper up to a millisecond late, which would show up
// in every alert latency measured from a due time; a nanosleep on a
// low-slack thread wakes within microseconds. The returned function
// unlocks the thread.
func pinGenerator() func() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return runtime.UnlockOSThread
}

// sleepUntil blocks the calling thread until t (an epoch offset). The
// generator never spins: a spinning generator would burn a CPU of a small
// host and show up in cpu_us_per_update.
func sleepUntil(t int64) {
	for {
		d := t - now()
		if d < 2000 {
			return
		}
		// A raw syscall keeps the generator's P through the sleep, so the
		// scheduler does no hand-off per unit (see generatorProcs).
		// EINTR (a preemption signal) loops and sleeps the rest.
		ts := syscall.NsecToTimespec(d)
		_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
}

// Steal is CPU time the hypervisor gave to other machines while this one
// was ready to run. No change to the program can cause it, yet on a shared
// host it comes in spells of minutes in which every latency and
// throughput figure worsens, many_conds_churn's p90 by half at 6% steal.
// A measured phase the host stole from is therefore run again. (Waiting
// for a quiet host before a phase does not help: an idle machine accrues
// no steal, so a spell shows only under load.)
const (
	// fixedRateSteal and closedLoopSteal are the shares of this machine's
	// CPU time the hypervisor may steal during a measured phase. On a
	// shared two-CPU host quiet minutes read 0–3% at the fixed rate and
	// up to 8% in the closed loop, whose own load draws more steal.
	fixedRateSteal  = 0.03
	closedLoopSteal = 0.10
	// phaseAttempts bounds how often a phase runs: twice keeps every run,
	// and the benchmark's runs together, within their time limits even
	// in a spell. When no attempt stays under its limit, the least
	// stolen-from one counts.
	phaseAttempts = 2
)

// hostSteal returns the steal time of all CPUs since boot in nanoseconds
// (the steal column of /proc/stat, in 1/100 s), or -1 where the kernel
// does not report it.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return ticks * 1e7
}

// stealShare returns the share of the CPUs' time stolen since steal0 and
// t0 (an epoch offset), or 0 where steal is not reported.
func stealShare(steal0, t0 int64) float64 {
	s := hostSteal()
	if s < 0 || steal0 < 0 {
		return 0
	}
	return float64(s-steal0) / (float64(now()-t0) * float64(runtime.NumCPU()))
}

// cpuNS returns the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapMB collects garbage and returns HeapInuse in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// nsToUS converts nanosecond samples to microseconds.
func nsToUS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e3
	}
	return out
}

// latencyClock turns a displayed alert into an alert-latency sample. It
// is armed for the fixed-rate phase only: updates k0 ≤ k < k1 of the
// schedule are due with their send unit, the DM's batch of readings,
// at t0 + (last-k0)·period where last is the unit's final index. An
// alert's clock starts at the due time of its freshest contributing
// update.
type latencyClock struct {
	sched   schedule
	k0, k1  atomic.Int64
	t0      atomic.Int64
	period  atomic.Uint64 // float64 bits, ns per update
	samples *tape[int64]
}

func newLatencyClock(sched schedule, capacity int) (*latencyClock, error) {
	t, err := newTape[int64](capacity)
	if err != nil {
		return nil, err
	}
	return &latencyClock{sched: sched, samples: t}, nil
}

func (c *latencyClock) arm(k0, k1, t0 int64, period float64) {
	c.t0.Store(t0)
	c.period.Store(math.Float64bits(period))
	c.k0.Store(k0)
	c.k1.Store(k1) // stored last: k1 > k0 is what opens the window
}

func (c *latencyClock) disarm() { c.k1.Store(0) }

// due returns the due time of update k and whether k lies in the armed
// window.
func (c *latencyClock) due(k int64) (int64, bool) {
	k1 := c.k1.Load()
	k0 := c.k0.Load()
	if k < k0 || k >= k1 {
		return 0, false
	}
	return c.t0.Load() + int64(float64(c.sched.last(k)-k0)*math.Float64frombits(c.period.Load())), true
}

// observe records one displayed alert whose freshest contributing update
// is schedule index k.
func (c *latencyClock) observe(k int64) {
	if d, ok := c.due(k); ok {
		c.samples.add(now() - d)
	}
}

func (c *latencyClock) release() { c.samples.release() }

// opSamples collects per-call latencies of one operation (churn calls,
// drains) in nanoseconds; a single goroutine owns each.
type opSamples []int64

func (s opSamples) quantileUS(q float64) float64 { return quantile(nsToUS(s), q) }

// timer accumulates the time spent in one layer's calls and how many
// calls or items it covered; safe for concurrent use.
type timer struct{ ns, n atomic.Int64 }

func (t *timer) add(ns, n int64) {
	t.ns.Add(ns)
	t.n.Add(n)
}

// per returns ns per item, or 0 when nothing was timed.
func (t *timer) per(items int64) float64 {
	if items <= 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(items)
}

// maxGauge keeps the largest value offered.
type maxGauge struct{ v atomic.Int64 }

func (g *maxGauge) offer(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}
