package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/transport"
)

// hot_striped is ingest- and reorder-bound: 64 variables, one carrying
// 90% of the updates, one update per datagram, striped across two sender
// lanes into a two-socket SO_REUSEPORT group with the reorder layer on.
// One CE replica evaluates one threshold per variable and an AD-1 filter
// follows it in the Dispatch callback; there is no back link, audit or
// WAL, so the receive path dominates.
const (
	hotVars = 64
	// hotDepth is twice the closed-loop window, so a receive goroutine
	// that is descheduled while its peer drains the other socket never
	// pushes the reorder ring into evicting (and losing) in-flight
	// seqnos: what the ring sees is the striping's real permutation.
	hotDepth  = 2 * hotWindow
	hotWindow = 512
	// hotSkew is how long a gap may hold a variable back. The default
	// (5 ms) is shorter than a Go scheduling slice on a busy two-CPU
	// host: a reader descheduled that long would see its datagrams
	// declared lost, which is a failure, not a measurement.
	hotSkew = 50 * time.Millisecond
	// hotLimit makes about 1% of readings fire: enough displayed alerts
	// for a p99 in every run while CE and AD stay idle.
	hotLimit = 3200
)

func hotSpec() *spec {
	names := varNames(hotVars)
	return &spec{
		name: "hot_striped", names: names, sched: hotSpot{hotVars},
		rate: 40000, window: hotWindow, setups: 101, replicas: 1,
		build: func(e *env) (pipeline, error) { return newHot(e, names) },
	}
}

// hotVar is one variable's CE and AD; the receiver hands a variable's
// runs over serially, so its fields need no lock.
type hotVar struct {
	c     cond.Condition
	ev    *ce.Evaluator
	flt   ad.Filter
	buf   []event.Alert
	last  int64   // last dispatched seqno
	gaps  []int64 // seqnos skipped by dispatch (declared lost)
	shown []int64 // seqnos of displayed alerts
	err   error
}

type hot struct {
	e     *env
	names []event.VarName
	vidx  map[event.VarName]int
	vars  []*hotVar
	pub   *transport.UDPPublisher
	recv  *transport.UDPReceiver

	published, acc, evals, fired, offered, displayed atomic.Int64
	pendingMax                                       maxGauge
	stopSampler                                      chan struct{}
	samplerDone                                      sync.WaitGroup
	startAt, stopAt                                  int64 // pipeline lifetime, for busy shares

	// skipped counts seqnos dispatch passed over: lost on the link, they
	// will never be dispatched.
	skipped atomic.Int64
}

func newHot(e *env, names []event.VarName) (_ *hot, err error) {
	h := &hot{e: e, names: names, vidx: map[event.VarName]int{}}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	for i, n := range names {
		h.vidx[n] = i
		c := cond.Threshold{CondName: "over_" + string(n), Var: n, Limit: hotLimit, Above: true}
		ev, err := ce.New("CE1", c)
		if err != nil {
			return nil, err
		}
		h.vars = append(h.vars, &hotVar{c: c, ev: ev, flt: ad.NewAD1()})
	}
	reg := e.reg()
	if h.recv, err = transport.ListenUDPGroup("127.0.0.1:0", 2, transport.UDPReceiverOptions{
		Dispatch: h.dispatch, ReorderDepth: hotDepth, ReorderSkew: hotSkew, Metrics: reg,
	}); err != nil {
		return nil, err
	}
	if h.pub, err = transport.NewUDPPublisherOpts(transport.UDPPublisherOptions{Senders: 2, Stripe: true}, h.recv.Addr()); err != nil {
		return nil, err
	}
	h.pub.SetMetrics(reg, "transport.pub")
	if e.tr != nil {
		h.stopSampler = make(chan struct{})
		h.samplerDone.Add(1)
		go func() {
			defer h.samplerDone.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-h.stopSampler:
					return
				case <-tick.C:
					h.pendingMax.offer(int64(h.recv.ReorderPending()))
				}
			}
		}()
	}
	h.startAt = now()
	return h, nil
}

func (h *hot) dispatch(v event.VarName, us []event.Update) {
	tr := h.e.tr
	var t0 int64
	if tr != nil {
		t0 = now()
		tr.dispatched(us, t0)
	}
	hv := h.vars[h.vidx[v]]
	for _, u := range us {
		if u.SeqNo <= hv.last && hv.err == nil {
			hv.err = fmt.Errorf("%s dispatched seqno %d after %d", v, u.SeqNo, hv.last)
		}
		for s := hv.last + 1; s < u.SeqNo; s++ {
			hv.gaps = append(hv.gaps, s)
		}
		h.skipped.Add(u.SeqNo - hv.last - 1)
		hv.last = u.SeqNo
	}
	var f0 int64
	if tr != nil {
		f0 = now()
	}
	alerts, err := hv.ev.FeedBatch(us, hv.buf[:0])
	if tr != nil {
		f1 := now()
		tr.feed.add(f1-f0, int64(len(us)))
		if s, ok := firstSampled(us); ok {
			tr.record(spFeed, v, s, f0, f1)
		}
	}
	hv.buf = alerts
	if err != nil && hv.err == nil {
		hv.err = err
	}
	h.evals.Add(int64(len(us)))
	h.fired.Add(int64(len(alerts)))
	for _, a := range alerts {
		var o0 int64
		if tr != nil {
			o0 = now()
		}
		seq := a.Histories[v].Recent[0].SeqNo
		if ad.Offer(hv.flt, a) {
			h.e.lat.observe(h.e.sched.index(h.vidx[v], seq))
			hv.shown = append(hv.shown, seq)
			h.displayed.Add(1)
		}
		h.offered.Add(1)
		if tr != nil {
			o1 := now()
			tr.offer.add(o1-o0, 1)
			tr.record(spOffer, v, seq, o0, o1)
		}
	}
	h.acc.Add(int64(len(us)))
	if tr != nil {
		t1 := now()
		tr.dispatch.add(t1-t0, 1)
		if s, ok := firstSampled(us); ok {
			tr.record(spDispatch, v, s, t0, t1)
		}
	}
}

func (h *hot) send(us []event.Update) error {
	tr := h.e.tr
	for i, u := range us {
		var p0 int64
		if tr != nil {
			p0 = now()
			tr.published(us[i:i+1], p0)
		}
		if err := h.pub.Publish(u); err != nil {
			return err
		}
		if tr != nil {
			p1 := now()
			tr.publish.add(p1-p0, 1)
			tr.record(spPublish, u.Var, u.SeqNo, p0, p1)
		}
	}
	h.published.Add(int64(len(us)))
	return nil
}

// done counts updates dispatched or provably lost, so that datagrams the
// kernel dropped during a host stall do not hold the closed loop's window
// shut; quiesce still counts them as lost.
func (h *hot) done() int64 { return h.acc.Load() + h.skipped.Load() }

func (h *hot) ready(sent int64) (bool, error) { return sent-h.done() < h.e.window, nil }

func (h *hot) backlog() int64 { return h.published.Load() - h.done() }

// quiesce waits until every sent update is dispatched or passed over, or
// until dispatch has been idle for half a second (a lost update with no
// later one of its variable is never passed over), and returns the
// updates never dispatched.
func (h *hot) quiesce(sent int64) (int64, error) {
	last, idle := int64(-1), 0
	for h.done() < sent {
		if d := h.done(); d == last {
			if idle++; idle > 500 {
				break
			}
		} else {
			last, idle = d, 0
		}
		time.Sleep(time.Millisecond)
	}
	return sent - h.acc.Load(), nil
}

func (h *hot) close() {
	if h.stopSampler != nil {
		close(h.stopSampler)
		h.samplerDone.Wait()
		h.stopSampler = nil
	}
	if h.pub != nil {
		h.pub.Close()
		h.pub = nil
	}
	if h.recv != nil {
		h.recv.Close()
		h.recv = nil
	}
}

func (h *hot) finish(sent int64, layers map[string]float64) error {
	h.stopAt = now()
	h.close()
	for _, hv := range h.vars {
		if hv.err != nil {
			return hv.err
		}
	}
	if layers != nil {
		h.layers(sent, layers)
	}
	return h.verify(sent)
}

// verify checks that each variable's dispatched seqnos strictly increased
// (done in dispatch) and that its displayed alerts equal T(c, U) over the
// dispatched stream U: every published seqno up to the last dispatched
// one, minus the gaps dispatch skipped.
func (h *hot) verify(sent int64) error {
	vals := values(h.e.seed, h.names, h.e.sched, sent)
	for vi, hv := range h.vars {
		ref, err := ce.New("T", hv.c)
		if err != nil {
			return err
		}
		var want []int64
		gaps := hv.gaps
		for s := int64(1); s <= hv.last; s++ {
			if len(gaps) > 0 && gaps[0] == s {
				gaps = gaps[1:]
				continue
			}
			_, fired, err := ref.Feed(event.Update{Var: h.names[vi], SeqNo: s, Value: vals[vi][s-1]})
			if err != nil {
				return err
			}
			if fired {
				want = append(want, s)
			}
		}
		if h.e.corrupt && len(want) > 0 {
			want[0] = -1
		}
		if len(want) != len(hv.shown) {
			return fmt.Errorf("reference mismatch: %s displayed %d alerts, T(c, U) has %d", hv.c.Name(), len(hv.shown), len(want))
		}
		for i := range want {
			if want[i] != hv.shown[i] {
				return fmt.Errorf("reference mismatch: %s displayed alert %d at seqno %d, T(c, U) has %d", hv.c.Name(), i, hv.shown[i], want[i])
			}
		}
	}
	return nil
}

func (h *hot) layers(sent int64, m map[string]float64) {
	tr := h.e.tr
	evals, offered := h.evals.Load(), h.offered.Load()
	var discarded int64
	for _, hv := range h.vars {
		_, d, _ := hv.ev.Stats()
		discarded += d
	}
	pubDg := tr.counter("transport.pub.datagrams")
	accepted := tr.counter("transport.recv.accepted")
	m["transport.publish_ns_per_update"] = tr.publish.per(sent)
	m["transport.dispatch_busy_share"] = float64(tr.dispatch.ns.Load()) / float64(2*(h.stopAt-h.startAt))
	m["transport.updates_per_datagram"] = tr.counter("transport.pub.updates") / pubDg
	m["transport.kernel_drop_share"] = 1 - tr.sumCounters("transport.recv.", ".datagrams")/pubDg
	m["transport.overrun"] = tr.counter("transport.recv.overrun")
	m["seq.reordered_share"] = tr.sumCounters("transport.recv.", ".reordered") / accepted
	m["seq.gap_loss"] = tr.counter("transport.recv.reorder.gap_loss")
	m["seq.pending_max"] = float64(h.pendingMax.v.Load())
	m["ce.feed_ns_per_eval"] = tr.feed.per(evals)
	m["ce.fire_ratio"] = float64(h.fired.Load()) / float64(evals)
	m["ce.discarded"] = float64(discarded)
	m["ad.offer_ns_per_alert"] = tr.offer.per(offered)
	m["ad.display_ratio"] = float64(h.displayed.Load()) / float64(offered)
}
