package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"condmon/internal/ad"
	"condmon/internal/audit"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/durable"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/transport"
)

// fleet_lossy is the paper's Figure 1(b) under load: one DM, two CE
// replicas behind their own front links (CE2's loses 10% of updates), the
// multiplexed back link, and an AD running a durable AD-4 or AD-6 filter
// per condition plus the auditor. It is the only workload in which the
// back link, the AD filters, the WAL and the audit do per-alert work.
const (
	fleetVars = 16
	fleetRun  = 4
	fleetLoss = 0.1
	// riseDelta and cmLimit make 10–20% of evaluations fire on the
	// reactor sources.
	riseDelta = 60
	cmLimit   = 270
	// walCompactEvery bounds each filter's WAL to a checkpoint plus this
	// many deltas.
	walCompactEvery = 4096
)

func fleetSpec() *spec {
	names := varNames(fleetVars)
	return &spec{
		name: "fleet_lossy", names: names, sched: roundRobin{fleetVars, fleetRun},
		rate: 25000, window: 1024, setups: 101, replicas: 2,
		build: func(e *env) (pipeline, error) { return newFleet(e, names) },
	}
}

// fleetConds returns twelve single-variable historical conditions
// (aggressive and conservative rises) and four two-variable cm
// conditions.
func fleetConds(names []event.VarName) ([]cond.Condition, error) {
	var cs []cond.Condition
	for i := 0; i < 12; i++ {
		v := names[i]
		name, src := "rise_"+string(v), fmt.Sprintf("%s[0] - %s[-1] > %d", v, v, riseDelta)
		if i%2 == 1 {
			name, src = "rise_cons_"+string(v), src+fmt.Sprintf(" && consecutive(%s)", v)
		}
		c, err := cond.Parse(name, src)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	for i, p := range [][2]int{{12, 13}, {14, 15}, {12, 14}, {13, 15}} {
		cs = append(cs, cond.AbsDiff{CondName: fmt.Sprintf("cm_%d", i), X: names[p[0]], Y: names[p[1]], Limit: cmLimit})
	}
	return cs, nil
}

// dispRec identifies one displayed alert compactly: condition, source
// replica, and two seqnos — the window (latest, previous) of a
// single-variable alert, or the latest of each variable of a cm alert.
type dispRec struct {
	cond, src uint16
	s0, s1    uint32
}

func recOf(c cond.Condition, ci, src int, a event.Alert) dispRec {
	r := dispRec{cond: uint16(ci), src: uint16(src)}
	vars := c.Vars()
	if len(vars) == 1 {
		h := a.Histories[vars[0]].Recent
		r.s0 = uint32(h[0].SeqNo)
		if len(h) > 1 {
			r.s1 = uint32(h[1].SeqNo)
		}
		return r
	}
	r.s0 = uint32(a.Histories[vars[0]].Latest().SeqNo)
	r.s1 = uint32(a.Histories[vars[1]].Latest().SeqNo)
	return r
}

// seededLoss is CE2's front-link loss: a Bernoulli(p) drop decided by a
// hash of (seed, variable, seqno), so the harness knows the schedule
// exactly and counts its drops apart from real failures.
type seededLoss struct {
	seed, v uint64
	p       float64
	rep     *fleetReplica
}

func (m seededLoss) Deliver(u event.Update, _ *rand.Rand) bool {
	if float64(mix(m.seed^m.v<<40^uint64(u.SeqNo))>>11)/(1<<53) >= m.p {
		return true
	}
	m.rep.acc.Add(1)
	return false
}

type fleetReplica struct {
	idx   int
	f     *fleet
	recv  *transport.UDPReceiver
	mux   *transport.MuxSender
	evals [][]*ce.Evaluator // by variable index
	buf   []event.Alert

	// acc counts updates this replica is done with: fed to every
	// subscribed evaluator, or dropped by the seeded loss. sent counts
	// alerts handed to the back link, nEvals updates × conditions fed.
	acc, sent, nEvals, fired atomic.Int64
	delivered                *tape[uint32] // var<<27 | seqno, in dispatch order
}

type fleet struct {
	e       *env
	names   []event.VarName
	vidx    map[event.VarName]int
	conds   []cond.Condition
	cidx    map[string]int
	condsOf [][]int // condition indexes by variable index
	pub     *transport.UDPPublisher
	reps    [2]*fleetReplica
	lis     *transport.MuxListener
	filters []*durable.LoggedFilter
	wals    []*durable.Log
	au      *audit.Auditor
	disp    *tape[dispRec]
	adDone  chan struct{}

	published, offered, displayed, walBytes atomic.Int64
	backlogMax                              maxGauge
	startAt, stopAt                         int64 // pipeline lifetime, for busy shares
	finalizeMS                              float64

	errMu sync.Mutex
	err   error
}

func newFleet(e *env, names []event.VarName) (_ *fleet, err error) {
	f := &fleet{e: e, names: names, vidx: map[event.VarName]int{}, cidx: map[string]int{},
		condsOf: make([][]int, len(names)), adDone: make(chan struct{})}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	for i, n := range names {
		f.vidx[n] = i
	}
	if f.conds, err = fleetConds(names); err != nil {
		return nil, err
	}
	if f.disp, err = newTape[dispRec](1 << 26); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.dir, "fleet-")
	if err != nil {
		return nil, err
	}
	reg := e.reg()
	walMetrics := durable.RegisterMetrics(reg, "durable.wal")
	for ci, c := range f.conds {
		f.cidx[c.Name()] = ci
		for _, v := range c.Vars() {
			f.condsOf[f.vidx[v]] = append(f.condsOf[f.vidx[v]], ci)
		}
		var flt ad.Filter
		if vars := c.Vars(); len(vars) == 1 {
			flt = ad.NewAD4(vars[0])
		} else {
			flt = ad.NewAD6(vars...)
		}
		wal, err := durable.Open(filepath.Join(dir, c.Name()+".wal"), durable.Options{SyncEvery: 0, Metrics: walMetrics})
		if err != nil {
			return nil, err
		}
		f.wals = append(f.wals, wal)
		f.filters = append(f.filters, durable.LogFilter(flt, wal, walCompactEvery))
	}
	f.au = audit.New(audit.Options{Conds: f.conds, Metrics: reg})
	if f.lis, err = transport.ListenMux("127.0.0.1:0", transport.MuxListenerOptions{Metrics: reg}); err != nil {
		return nil, err
	}
	go f.adLoop() // close waits for it once lis is set
	addrs := make([]string, 2)
	for i := range f.reps {
		r := &fleetReplica{idx: i, f: f, evals: make([][]*ce.Evaluator, len(names))}
		f.reps[i] = r
		if r.delivered, err = newTape[uint32](1 << 27); err != nil {
			return nil, err
		}
		for _, c := range f.conds {
			ev, err := ce.New(fmt.Sprintf("CE%d", i+1), c)
			if err != nil {
				return nil, err
			}
			for _, v := range c.Vars() {
				vi := f.vidx[v]
				r.evals[vi] = append(r.evals[vi], ev)
			}
		}
		// Dial before the receiver starts: its goroutine reads r.mux.
		if r.mux, err = transport.DialMux(f.lis.Addr(), transport.MuxSenderOptions{Metrics: reg}); err != nil {
			return nil, err
		}
		opts := transport.UDPReceiverOptions{Dispatch: r.dispatch, Metrics: reg}
		if i == 1 {
			opts.LossFor = func(v event.VarName) link.Model {
				return seededLoss{seed: uint64(e.seed), v: uint64(f.vidx[v]), p: fleetLoss, rep: r}
			}
		}
		if r.recv, err = transport.ListenUDPGroup("127.0.0.1:0", 1, opts); err != nil {
			return nil, err
		}
		addrs[i] = r.recv.Addr()
	}
	if f.pub, err = transport.NewUDPPublisherOpts(transport.UDPPublisherOptions{Senders: 1}, addrs...); err != nil {
		return nil, err
	}
	f.pub.SetMetrics(reg, "transport.pub")
	f.startAt = now()
	return f, nil
}

func (f *fleet) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

func (f *fleet) firstErr() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

func (r *fleetReplica) dispatch(v event.VarName, us []event.Update) {
	f := r.f
	tr := f.e.tr
	var t0 int64
	if tr != nil {
		t0 = now()
		tr.dispatched(us, t0)
	}
	vi := f.vidx[v]
	for _, u := range us {
		if !r.delivered.add(uint32(vi)<<27 | uint32(u.SeqNo)) {
			f.fail(errors.New("delivery tape full"))
		}
	}
	for _, ev := range r.evals[vi] {
		var f0 int64
		if tr != nil {
			f0 = now()
		}
		alerts, err := ev.FeedBatch(us, r.buf[:0])
		if tr != nil {
			f1 := now()
			tr.feed.add(f1-f0, int64(len(us)))
			if s, ok := firstSampled(us); ok {
				tr.record(spFeed, v, s, f0, f1)
			}
		}
		r.buf = alerts
		if err != nil {
			f.fail(err)
		}
		r.nEvals.Add(int64(len(us)))
		r.fired.Add(int64(len(alerts)))
		for _, a := range alerts {
			var s0 int64
			if tr != nil {
				s0 = now()
			}
			if err := r.mux.Send(uint32(r.idx), a); err != nil {
				f.fail(err)
			}
			r.sent.Add(1)
			if tr != nil {
				s1 := now()
				tr.muxSend.add(s1-s0, 1)
				tv, ts, _ := trigger(f.e.sched, f.vidx, a)
				tr.sent(uint32(r.idx), a, ts, s0)
				tr.record(spMuxSend, tv, ts, s0, s1)
			}
		}
	}
	r.acc.Add(int64(len(us)))
	if tr != nil {
		t1 := now()
		tr.dispatch.add(t1-t0, 1)
		if s, ok := firstSampled(us); ok {
			tr.record(spDispatch, v, s, t0, t1)
		}
	}
}

func (f *fleet) adLoop() {
	defer close(f.adDone)
	tr := f.e.tr
	for sa := range f.lis.Alerts() {
		a := sa.Alert
		var t0 int64
		if tr != nil {
			t0 = now()
			f.backlogMax.offer(int64(len(f.lis.Alerts())))
		}
		ci, ok := f.cidx[a.Cond]
		if !ok {
			f.fail(fmt.Errorf("alert for unknown condition %q", a.Cond))
			continue
		}
		tv, ts, k := trigger(f.e.sched, f.vidx, a)
		if tr != nil {
			tr.arrived(sa.Stream, a, ts, t0)
		}
		var size0, o0 int64
		if tr != nil {
			size0 = f.wals[ci].Size()
			o0 = now()
		}
		shown := ad.Offer(f.filters[ci], a)
		var o1 int64
		if tr != nil {
			o1 = now()
			tr.offer.add(o1-o0, 1)
			if d := f.wals[ci].Size() - size0; d > 0 {
				f.walBytes.Add(d)
			}
		}
		if shown {
			f.e.lat.observe(k)
			f.displayed.Add(1)
			if !f.disp.add(recOf(f.conds[ci], ci, int(sa.Stream), a)) {
				f.fail(errors.New("display tape full"))
			}
			f.au.ObserveDisplayed(a, 0)
		} else {
			f.au.ObserveSuppressed(a)
		}
		if tr != nil {
			a1 := now()
			tr.auditObs.add(a1-o1, 1)
			tr.record(spAudit, tv, ts, o1, a1)
			tr.record(spOffer, tv, ts, t0, a1)
		}
		f.offered.Add(1)
	}
}

func (f *fleet) send(us []event.Update) error {
	tr := f.e.tr
	var t0 int64
	if tr != nil {
		t0 = now()
	}
	for _, u := range us {
		f.au.ObserveEmitted(u)
	}
	var p0 int64
	if tr != nil {
		p0 = now()
		tr.auditEmit.add(p0-t0, int64(len(us)))
		tr.published(us, p0)
	}
	err := f.pub.PublishBatch(us[0].Var, us)
	if tr != nil {
		p1 := now()
		tr.publish.add(p1-p0, int64(len(us)))
		if s, ok := firstSampled(us); ok {
			tr.record(spPublish, us[0].Var, s, p0, p1)
		}
	}
	if err != nil {
		return err
	}
	f.published.Add(int64(len(us)))
	return f.firstErr()
}

func (f *fleet) done() int64 {
	a, b := f.reps[0].acc.Load(), f.reps[1].acc.Load()
	if b < a {
		return b
	}
	return a
}

func (f *fleet) alertsInFlight() int64 {
	return f.reps[0].sent.Load() + f.reps[1].sent.Load() - f.offered.Load()
}

func (f *fleet) ready(sent int64) (bool, error) {
	return sent-f.done() < f.e.window && f.alertsInFlight() < 4096, f.firstErr()
}

func (f *fleet) backlog() int64 {
	return f.published.Load() - f.done() + f.alertsInFlight()
}

// quiesce waits until both replicas are done with every sent update and
// the AD has offered every alert. Updates still missing after half a
// second without progress are lost (kernel drops); they are counted, and
// the reference check then covers what was delivered.
func (f *fleet) quiesce(sent int64) (int64, error) {
	last, idle := int64(-1), 0
	for {
		for _, r := range f.reps {
			if err := r.mux.Flush(); err != nil {
				return 0, err
			}
		}
		progress := f.reps[0].acc.Load() + f.reps[1].acc.Load() + f.offered.Load()
		if f.done() == sent && f.alertsInFlight() == 0 {
			break
		}
		if progress == last {
			if idle++; idle > 500 {
				break
			}
		} else {
			last, idle = progress, 0
		}
		time.Sleep(time.Millisecond)
	}
	if f.alertsInFlight() != 0 {
		return 0, fmt.Errorf("%d alerts sent on the back link never reached the AD", f.alertsInFlight())
	}
	return 2*sent - f.reps[0].acc.Load() - f.reps[1].acc.Load(), f.firstErr()
}

// shutdown stops every goroutine of the pipeline, in data-flow order;
// the tapes stay readable. It is idempotent.
func (f *fleet) shutdown() {
	if f.pub != nil {
		f.pub.Close()
		f.pub = nil
	}
	for _, r := range f.reps {
		if r != nil && r.recv != nil {
			r.recv.Close()
			r.recv = nil
		}
		if r != nil && r.mux != nil {
			_ = r.mux.Close()
			r.mux = nil
		}
	}
	if f.lis != nil {
		f.lis.Close()
		<-f.adDone
		f.lis = nil
	}
	for _, w := range f.wals {
		_ = w.Close()
	}
	f.wals = nil
}

func (f *fleet) close() {
	f.shutdown()
	for _, r := range f.reps {
		if r != nil {
			r.delivered.release()
		}
	}
	f.disp.release()
}

func (f *fleet) finish(sent int64, layers map[string]float64) error {
	defer f.close()
	f.stopAt = now()
	t0 := now()
	f.au.Finalize()
	f.finalizeMS = float64(now()-t0) / 1e6
	for _, flt := range f.filters {
		if err := flt.Err(); err != nil {
			f.fail(err)
		}
	}
	if layers != nil {
		f.layers(sent, layers) // reads the WAL counters before shutdown
	}
	f.shutdown()
	if err := f.firstErr(); err != nil {
		return err
	}
	return f.verify(sent)
}

// verify checks the displayed alerts against the reference. For each
// replica i it replays the stream Ui the replica's Dispatch callback
// received, in that order, through a fresh evaluator per condition: that
// is T(c, Ui), the paper's mapping. The alerts displayed from replica i
// must be a subsequence of T(c, Ui) in order — stronger than membership of
// ∪ᵢ T(c, Ui). The audit matrix must show no VIOLATED cell where the
// paper's tables promise the property for the filter on lossy links:
// AD-4 and AD-6 promise orderedness and consistency in every scenario.
func (f *fleet) verify(sent int64) error {
	vals := values(f.e.seed, f.names, f.e.sched, sent)
	byKey := make(map[[2]int][]dispRec)
	for _, d := range f.disp.all() {
		k := [2]int{int(d.cond), int(d.src)}
		byKey[k] = append(byKey[k], d)
	}
	corrupted := -1
	if f.e.corrupt {
		for ci := range f.conds {
			if len(byKey[[2]int{ci, 0}]) > 0 {
				corrupted = ci
				break
			}
		}
	}
	for ri, r := range f.reps {
		ref := make([]*ce.Evaluator, len(f.conds))
		for ci, c := range f.conds {
			ev, err := ce.New("T", c)
			if err != nil {
				return err
			}
			ref[ci] = ev
		}
		pos := make([]int, len(f.conds))
		for _, d := range r.delivered.all() {
			vi, s := int(d>>27), int64(d&(1<<27-1))
			if s < 1 || s > int64(len(vals[vi])) {
				return fmt.Errorf("CE%d received %s seqno %d, never published", ri+1, f.names[vi], s)
			}
			u := event.Update{Var: f.names[vi], SeqNo: s, Value: vals[vi][s-1]}
			for _, ci := range f.condsOf[vi] {
				a, fired, err := ref[ci].Feed(u)
				if err != nil {
					return err
				}
				if !fired {
					continue
				}
				rec := recOf(f.conds[ci], ci, ri, a)
				if ci == corrupted && ri == 0 {
					rec.s0 = ^uint32(0)
				}
				if list := byKey[[2]int{ci, ri}]; pos[ci] < len(list) && list[pos[ci]] == rec {
					pos[ci]++
				}
			}
		}
		for ci, c := range f.conds {
			if list := byKey[[2]int{ci, ri}]; pos[ci] != len(list) {
				d := list[pos[ci]]
				return fmt.Errorf("reference mismatch: %s displayed an alert from CE%d (seqnos %d,%d) that is not in T(c, U%d)",
					c.Name(), ri+1, d.s0, d.s1, ri+1)
			}
		}
	}
	for _, c := range f.conds {
		m := f.au.CondVerdicts(c.Name())
		if m.Ordered == audit.Violated || m.Consistent == audit.Violated {
			return fmt.Errorf("reference mismatch: audit of %s reads %s, but the filter promises orderedness and consistency", c.Name(), m)
		}
	}
	return nil
}

func (f *fleet) layers(sent int64, m map[string]float64) {
	tr := f.e.tr
	var evals, fired, alerts, discarded int64
	for _, r := range f.reps {
		evals += r.nEvals.Load()
		fired += r.fired.Load()
		alerts += r.sent.Load()
		seen := map[*ce.Evaluator]bool{}
		for _, evs := range r.evals {
			for _, ev := range evs {
				if !seen[ev] {
					seen[ev] = true
					_, d, _ := ev.Stats()
					discarded += d
				}
			}
		}
	}
	offered, displayed := f.offered.Load(), f.displayed.Load()
	pubDg := tr.counter("transport.pub.datagrams")
	m["transport.publish_ns_per_update"] = tr.publish.per(sent)
	m["transport.dispatch_busy_share"] = float64(tr.dispatch.ns.Load()) / float64(2*(f.stopAt-f.startAt))
	m["transport.updates_per_datagram"] = 2 * tr.counter("transport.pub.updates") / pubDg
	m["transport.kernel_drop_share"] = 1 - tr.sumCounters("transport.recv.", ".datagrams")/pubDg
	m["transport.overrun"] = tr.counter("transport.recv.overrun")
	m["seq.reordered_share"] = tr.sumCounters("transport.recv.", ".reordered") / tr.counter("transport.recv.accepted")
	m["seq.gap_loss"] = tr.counter("transport.recv.reorder.gap_loss")
	m["ce.feed_ns_per_eval"] = tr.feed.per(evals)
	m["ce.fire_ratio"] = float64(fired) / float64(evals)
	m["ce.discarded"] = float64(discarded)
	m["transport.mux_send_ns_per_alert"] = tr.muxSend.per(alerts)
	m["transport.mux_alerts_per_frame"] = tr.counter("transport.mux.alerts") / tr.counter("transport.mux.frames")
	m["ad.offer_ns_per_alert"] = tr.offer.per(offered)
	m["ad.display_ratio"] = float64(displayed) / float64(offered)
	m["ad.backlog_max"] = float64(f.backlogMax.v.Load())
	m["audit.observe_ns_per_alert"] = tr.auditObs.per(offered)
	m["audit.emitted_ns_per_update"] = tr.auditEmit.per(sent)
	m["audit.finalize_ms"] = f.finalizeMS
	m["durable.appends_per_alert"] = tr.counter("durable.wal.appends") / float64(displayed)
	m["durable.wal_bytes_per_alert"] = float64(f.walBytes.Load()) / float64(displayed)
	m["durable.compactions"] = tr.counter("durable.wal.compactions")
}
