package main

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/runtime"
)

// many_conds_churn is evaluation-bound: one runtime.Engine with two
// replicas holds 100k conditions over 64 variables, 99% packable
// thresholds and 1% stragglers, each behind AD-1. The generator injects
// runs of 64 round-robin over the variables while a second goroutine
// registers and unregisters fresh thresholds at a fixed rate. Sockets,
// back link, audit and WAL do no work here.
const (
	churnVars  = 64
	churnRun   = 64
	churnConds = 100000
	// churnOpsPerS is the fixed registration churn rate; each tick
	// registers one fresh threshold and, once churnLive are live,
	// unregisters the oldest. At 200 a second the registry's stalls
	// dominated every latency figure of the run.
	churnOpsPerS = 20
	churnLive    = 16
	// checkSample is how many never-churned conditions the reference
	// check replays.
	checkSample = 256
)

func churnSpec() *spec {
	names := varNames(churnVars)
	return &spec{
		name: "many_conds_churn", names: names, sched: roundRobin{churnVars, churnRun},
		rate: 15000, window: 4096, setups: 5, replicas: 2,
		build: func(e *env) (pipeline, error) { return newChurn(e, names) },
	}
}

// churnConditions builds the registered set: thresholds whose limits
// spread far over the upper tail of the reactor readings, so about 0.03%
// of evaluations fire, plus one straggler in a thousand: a two-variable
// difference or'ed with a conservative rise. Differences and rises on
// their own pack, DSL or built-in; the Or is what the pack compiler
// cannot take, so it gets a private evaluator per lane. One in a hundred
// stragglers cost about 70 µs per update and buried the pack path this
// workload exists to measure.
func churnConditions(seed int64, names []event.VarName, n int) []cond.Condition {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]cond.Condition, 0, n)
	for i := 0; i < n; i++ {
		v := names[i%len(names)]
		if i%1000 != 999 {
			cs = append(cs, cond.Threshold{CondName: fmt.Sprintf("t%06d", i), Var: v,
				Limit: 3200 + 6000*rng.Float64(), Above: true})
			continue
		}
		w := names[(i+1)%len(names)]
		cs = append(cs, cond.Or{
			CondName: fmt.Sprintf("s%06d", i),
			A:        cond.AbsDiff{CondName: "diff", X: v, Y: w, Limit: float64(420 + rng.Intn(100))},
			B:        cond.Rise{CondName: "rise", Var: v, Delta: float64(150 + rng.Intn(50)), Consecutive: true},
		})
	}
	return cs
}

// latFilter is AD-1 with a latency probe: the Engine's demux calls Accept
// exactly when it displays an alert, which is where the alert-latency
// clock stops. It holds AD-1 in a field rather than embedding it, so the
// demux takes the Test/Accept path and the probe sees every display.
type latFilter struct {
	inner *ad.AD1
	e     *env
	vidx  map[event.VarName]int
}

func (f latFilter) Name() string            { return f.inner.Name() }
func (f latFilter) Test(a event.Alert) bool { return f.inner.Test(a) }

func (f latFilter) Accept(a event.Alert) {
	f.inner.Accept(a)
	_, _, k := trigger(f.e.sched, f.vidx, a)
	f.e.lat.observe(k)
}

type churn struct {
	e      *env
	names  []event.VarName
	vidx   map[event.VarName]int
	conds  []cond.Condition
	ng     *runtime.Engine
	regDur float64 // seconds spent registering the initial set

	drained atomic.Int64 // updates sent before the last Drain returned
	drains  opSamples

	stopChurn chan struct{}
	churnDone sync.WaitGroup
	regs      opSamples // churn goroutine only
	unregs    opSamples
	churnErr  error
}

func newChurn(e *env, names []event.VarName) (_ *churn, err error) {
	n := churnConds
	if e.tiny {
		n = 2000
	}
	c := &churn{e: e, names: names, vidx: map[event.VarName]int{}}
	for i, v := range names {
		c.vidx[v] = i
	}
	c.conds = churnConditions(e.seed, names, n)
	c.ng, err = runtime.NewEngine(func(cond.Condition) ad.Filter {
		return latFilter{inner: ad.NewAD1(), e: e, vidx: c.vidx}
	}, runtime.EngineOptions{Replicas: 2, Workers: gort.NumCPU(), Seed: e.seed, Metrics: e.reg()})
	if err != nil {
		return nil, err
	}
	t0 := now()
	for _, cd := range c.conds {
		if _, err := c.ng.Register(cd); err != nil {
			c.close()
			return nil, err
		}
	}
	c.regDur = float64(now()-t0) / 1e9
	c.stopChurn = make(chan struct{})
	c.churnDone.Add(1)
	go c.churnLoop()
	return c, nil
}

// churnLoop registers and unregisters fresh thresholds at churnOpsPerS
// while updates flow, timing every call.
func (c *churn) churnLoop() {
	defer c.churnDone.Done()
	tick := time.NewTicker(time.Second / churnOpsPerS)
	defer tick.Stop()
	var live []string
	for n := 0; ; n++ {
		select {
		case <-c.stopChurn:
			return
		case <-tick.C:
		}
		name := fmt.Sprintf("churn%07d", n)
		t0 := now()
		_, err := c.ng.Register(cond.Threshold{CondName: name, Var: c.names[n%len(c.names)], Limit: 3400, Above: true})
		c.regs = append(c.regs, now()-t0)
		if err != nil {
			c.churnErr = err
			return
		}
		if live = append(live, name); len(live) > churnLive {
			t0 = now()
			err = c.ng.Unregister(live[0])
			c.unregs = append(c.unregs, now()-t0)
			if err != nil {
				c.churnErr = err
				return
			}
			live = live[1:]
		}
	}
}

func (c *churn) send(us []event.Update) error {
	tr := c.e.tr
	var t0 int64
	if tr != nil {
		t0 = now()
	}
	err := c.ng.InjectBatch(us[0].Var, us)
	if tr != nil {
		t1 := now()
		tr.inject.add(t1-t0, int64(len(us)))
		if s, ok := firstSampled(us); ok {
			tr.record(spInject, us[0].Var, s, t0, t1)
		}
	}
	return err
}

func (c *churn) drain() error {
	t0 := now()
	err := c.ng.Drain()
	c.drains = append(c.drains, now()-t0)
	return err
}

// ready drains the Engine whenever a window of updates is in flight: an
// update is complete when Drain has returned after it.
func (c *churn) ready(sent int64) (bool, error) {
	if sent-c.drained.Load() < c.e.window {
		return true, nil
	}
	if err := c.drain(); err != nil {
		return false, err
	}
	c.drained.Store(sent)
	return true, nil
}

func (c *churn) done() int64 { return c.drained.Load() }

// backlog is zero from outside: the Engine's shard queues are bounded
// channels, so an overloaded Engine blocks InjectBatch and shows as
// generator lag instead.
func (c *churn) backlog() int64 { return 0 }

func (c *churn) quiesce(sent int64) (int64, error) {
	if err := c.drain(); err != nil {
		return 0, err
	}
	c.drained.Store(sent)
	return 0, nil
}

func (c *churn) close() {
	if c.stopChurn != nil {
		close(c.stopChurn)
		c.churnDone.Wait()
		c.stopChurn = nil
	}
	if c.ng != nil {
		_, _ = c.ng.Close()
		c.ng = nil
	}
}

func (c *churn) finish(sent int64, layers map[string]float64) error {
	close(c.stopChurn)
	c.churnDone.Wait()
	c.stopChurn = nil
	defer c.close()
	if c.churnErr != nil {
		return c.churnErr
	}
	if err := c.drain(); err != nil {
		return err
	}
	if layers != nil {
		if err := c.layers(sent, layers); err != nil {
			return err
		}
	}
	if err := c.verify(sent); err != nil {
		return err
	}
	_, err := c.ng.Close()
	c.ng = nil
	return err
}

// verify replays the injected stream — every unit in schedule order —
// through fresh evaluators for a seeded sample of never-churned
// conditions: T(c, U). Each sampled condition's displayed alerts must
// equal it, key for key and in order.
func (c *churn) verify(sent int64) error {
	rng := rand.New(rand.NewSource(c.e.seed ^ 0x5eed))
	idx := rng.Perm(len(c.conds))[:checkSample]
	sort.Ints(idx)
	byVar := make([][]int, len(c.names))
	refs := make(map[int]*ce.Evaluator, len(idx))
	want := make(map[int][]string, len(idx))
	for _, i := range idx {
		ev, err := ce.New("T", c.conds[i])
		if err != nil {
			return err
		}
		refs[i] = ev
		for _, v := range c.conds[i].Vars() {
			byVar[c.vidx[v]] = append(byVar[c.vidx[v]], i)
		}
	}
	s := newStream(c.e.seed, c.names, c.e.sched)
	var buf []event.Update
	for s.k < sent {
		buf = s.next(buf)
		for _, u := range buf {
			for _, i := range byVar[c.vidx[u.Var]] {
				a, fired, err := refs[i].Feed(u)
				if err != nil {
					return err
				}
				if fired {
					want[i] = append(want[i], a.Key())
				}
			}
		}
	}
	corrupted := false
	for _, i := range idx {
		name := c.conds[i].Name()
		got := c.ng.Demux().DisplayedFor(name)
		w := want[i]
		if c.e.corrupt && !corrupted && len(w) > 0 {
			w[0], corrupted = "corrupted", true
		}
		if len(got) != len(w) {
			return fmt.Errorf("reference mismatch: %s displayed %d alerts, T(c, U) has %d", name, len(got), len(w))
		}
		for j := range w {
			if got[j].Key() != w[j] {
				return fmt.Errorf("reference mismatch: %s alert %d is %s, T(c, U) has %s", name, j, got[j].Key(), w[j])
			}
		}
	}
	if c.e.corrupt && !corrupted {
		return fmt.Errorf("reference mismatch: corrupted reference had no alert to corrupt")
	}
	return nil
}

func (c *churn) layers(sent int64, m map[string]float64) error {
	tr := c.e.tr
	var packs, members, stragglers int64
	var mu sync.Mutex
	if err := c.ng.VisitLanes(func(_, _ int, se *ce.SharedEvaluator) error {
		mu.Lock()
		packs += int64(se.Packs())
		members += int64(se.PackMembers())
		stragglers += int64(se.Stragglers())
		mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	var drainNS int64
	for _, d := range c.drains {
		drainNS += d
	}
	d := c.ng.Demux()
	offered := d.DisplayedCount() + d.Suppressed() + d.Fenced()
	// Evaluations: every injected update reaches both replicas' lanes,
	// where it is evaluated against the conditions reading its variable.
	evals := float64(sent) * 2 * float64(len(c.conds)) / float64(len(c.names))
	ops := append(append(opSamples(nil), c.regs...), c.unregs...)
	m["runtime.inject_ns_per_update"] = tr.inject.per(sent)
	m["runtime.drain_ms"] = float64(drainNS) / float64(len(c.drains)) / 1e6
	m["runtime.register_us_p50"] = c.regs.quantileUS(0.5)
	m["runtime.register_us_p99"] = c.regs.quantileUS(0.99)
	m["runtime.unregister_us_p50"] = c.unregs.quantileUS(0.5)
	m["runtime.unregister_us_p99"] = c.unregs.quantileUS(0.99)
	m["runtime.bulk_register_per_s"] = float64(len(c.conds)) / c.regDur
	m["churn_op_p99_us"] = ops.quantileUS(0.99)
	m["cond.packs"] = float64(packs)
	m["cond.pack_member_share"] = float64(members) / float64(members+stragglers)
	m["ce.fire_ratio"] = tr.counter("engine.ce.fired") / evals
	m["ce.discarded"] = tr.counter("engine.ce.discarded")
	m["ad.display_ratio"] = float64(d.DisplayedCount()) / float64(offered)
	return nil
}
