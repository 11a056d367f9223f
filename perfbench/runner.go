package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"condmon/internal/event"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that bypasses a layer reports 0 for it; layers.json
// says which workload exercises which layer.
var perLayer = []struct{ name, unit string }{
	{"alert_latency_p99_us", "us"},
	{"transport.publish_ns_per_update", "ns"},
	{"transport.front_hop_p50_us", "us"},
	{"transport.front_hop_p99_us", "us"},
	{"transport.dispatch_busy_share", "ratio"},
	{"transport.updates_per_datagram", "count"},
	{"transport.kernel_drop_share", "ratio"},
	{"transport.overrun", "count"},
	{"seq.reordered_share", "ratio"},
	{"seq.gap_loss", "count"},
	{"seq.pending_max", "count"},
	{"ce.feed_ns_per_eval", "ns"},
	{"ce.fire_ratio", "ratio"},
	{"ce.discarded", "count"},
	{"runtime.inject_ns_per_update", "ns"},
	{"runtime.drain_ms", "ms"},
	{"runtime.register_us_p50", "us"},
	{"runtime.register_us_p99", "us"},
	{"runtime.unregister_us_p50", "us"},
	{"runtime.unregister_us_p99", "us"},
	{"runtime.bulk_register_per_s", "1/s"},
	{"churn_op_p99_us", "us"},
	{"cond.packs", "count"},
	{"cond.pack_member_share", "ratio"},
	{"transport.mux_send_ns_per_alert", "ns"},
	{"transport.mux_hop_p50_us", "us"},
	{"transport.mux_hop_p99_us", "us"},
	{"transport.mux_alerts_per_frame", "count"},
	{"ad.offer_ns_per_alert", "ns"},
	{"ad.display_ratio", "ratio"},
	{"ad.backlog_max", "count"},
	{"audit.observe_ns_per_alert", "ns"},
	{"audit.emitted_ns_per_update", "ns"},
	{"audit.finalize_ms", "ms"},
	{"durable.appends_per_alert", "count"},
	{"durable.wal_bytes_per_alert", "bytes"},
	{"durable.compactions", "count"},
	{"failed_share", "ratio"},
	{"bench.generator_lag_p99_us", "us"},
	{"bench.trace_overhead_share", "ratio"},
}

// runner drives one run of one workload.
type runner struct {
	sp      *spec
	seconds float64
	base    env
	samples map[string]int64
	// host records, per measured phase, the attempts made and the steal
	// share of the one that counts.
	host map[string]float64
}

// phase lengths in seconds: untimed warm-up, open-loop fixed rate,
// closed loop.
func (r *runner) phases() (warm, fixed, closed float64) {
	return 0.1 * r.seconds, 0.5 * r.seconds, 0.4 * r.seconds
}

func (r *runner) untraced() (result, error) {
	lat, err := newLatencyClock(r.sp.sched, 1<<24)
	if err != nil {
		return result{}, err
	}
	defer lat.release()
	var (
		p      pipeline
		setups []float64
	)
	for i := 0; i < r.sp.setups; i++ {
		e := r.base
		e.lat = lat
		// Each set-up starts on a collected heap, so none pays for the
		// garbage of the one before it.
		runtime.GC()
		t0 := now()
		p, err = r.sp.build(&e)
		if err != nil {
			return result{}, fmt.Errorf("set up %s: %w", r.sp.name, err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
		if i < r.sp.setups-1 {
			p.close()
		}
	}
	r.samples["setup_s"] = int64(len(setups))
	m, err := r.measure(p, lat, nil)
	if err != nil {
		return result{}, err
	}
	lats := nsToUS(m.lats)
	r.samples["alert_latency"] = int64(len(lats))
	r.samples["fixed_rate_updates"] = m.open.n
	if len(lats) == 0 {
		return result{}, fmt.Errorf("no alert was displayed in the fixed-rate phase")
	}
	return result{
		Correct:   true,
		Attempted: m.sent * int64(r.sp.replicas),
		Failed:    m.lost,
		Metrics: map[string]metric{
			"updates_per_s":        {m.tput, "updates/s"},
			"alert_latency_p50_us": {quantile(lats, 0.5), "us"},
			"alert_latency_p90_us": {quantile(lats, 0.90), "us"},
			"cpu_us_per_update":    {m.open.cpuUS, "us"},
			"setup_s":              {median(setups), "s"},
			"heap_mb":              {m.heap, "MB"},
		},
	}, nil
}

// measured is what the phases of one pipeline produced.
type measured struct {
	open openStats
	heap float64 // MiB in use after the first fixed-rate attempt
	tput float64 // closed-loop updates/s
	sent int64   // updates offered in all phases
	lost int64   // updates a CE never received, over replicas
	lats []int64 // alert latencies of the fixed-rate phase, ns
}

// measure runs the warm-up, the fixed-rate phase and the closed loop on
// p, then finishes it: stops it and checks its output against the
// reference. layers, when not nil, receives the traced per-layer metrics.
func (r *runner) measure(p pipeline, lat *latencyClock, layers map[string]float64) (measured, error) {
	warm, fixed, closed := r.phases()
	s := newStream(r.base.seed, r.sp.names, r.sp.sched)
	var m measured
	err := func() error {
		if _, err := r.open(p, s, warm, nil); err != nil {
			return err
		}
		var (
			opens []openStats
			lats  [][]int64
		)
		best, err := r.quietly("fixed_rate", fixedRateSteal, func() error {
			mark := len(lat.samples.all())
			o, err := r.open(p, s, fixed, lat)
			if err != nil {
				return err
			}
			// Quiesced, so the next attempt or the closed loop starts
			// on an empty pipeline.
			if m.lost, err = p.quiesce(s.k); err != nil {
				return err
			}
			if len(opens) == 0 {
				// After the first attempt, so that the memory a
				// pipeline holds for every update it has processed
				// does not grow with the attempts.
				m.heap = heapMB()
			}
			opens, lats = append(opens, o), append(lats, lat.samples.all()[mark:])
			return nil
		})
		if err != nil {
			return err
		}
		m.open, m.lats = opens[best], lats[best]
		if m.tput, err = r.quietClosed(p, s, closed); err != nil {
			return err
		}
		m.lost, err = p.quiesce(s.k)
		return err
	}()
	if err != nil {
		p.close()
		return m, err
	}
	m.sent = s.k
	if err := p.finish(s.k, layers); err != nil {
		return m, err
	}
	return m, r.honest(m.open)
}

// traced measures the untraced closed-loop throughput on one pipeline,
// then builds an instrumented pipeline and runs every phase on it; the
// difference between the two throughputs is the tracing overhead.
func (r *runner) traced() (result, error) {
	lat, err := newLatencyClock(r.sp.sched, 1<<24)
	if err != nil {
		return result{}, err
	}
	defer lat.release()
	warm, _, closed := r.phases()

	e := r.base
	e.lat = lat
	p, err := r.sp.build(&e)
	if err != nil {
		return result{}, err
	}
	s := newStream(r.base.seed, r.sp.names, r.sp.sched)
	if _, err := r.open(p, s, warm, nil); err != nil {
		p.close()
		return result{}, err
	}
	plain, err := r.quietClosed(p, s, closed)
	p.close()
	if err != nil {
		return result{}, err
	}

	tr, err := newTracer(r.sp.names)
	if err != nil {
		return result{}, err
	}
	defer tr.release()
	e = r.base
	e.lat, e.tr = lat, tr
	if p, err = r.sp.build(&e); err != nil {
		return result{}, err
	}
	layers := map[string]float64{}
	m, err := r.measure(p, lat, layers)
	if err != nil {
		return result{}, err
	}
	attempted := m.sent * int64(r.sp.replicas)
	layers["failed_share"] = float64(m.lost) / float64(attempted)
	layers["bench.generator_lag_p99_us"] = quantile(m.open.lagUS, 0.99)
	layers["bench.trace_overhead_share"] = 1 - m.tput/plain
	lats := nsToUS(m.lats)
	layers["alert_latency_p99_us"] = quantile(lats, 0.99)
	r.samples["alert_latency"] = int64(len(lats))
	front := nsToUS(tr.frontHops.all())
	mux := nsToUS(tr.muxHops.all())
	layers["transport.front_hop_p50_us"] = quantile(front, 0.5)
	layers["transport.front_hop_p99_us"] = quantile(front, 0.99)
	layers["transport.mux_hop_p50_us"] = quantile(mux, 0.5)
	layers["transport.mux_hop_p99_us"] = quantile(mux, 0.99)
	r.samples["front_hop"] = int64(len(front))
	r.samples["mux_hop"] = int64(len(mux))
	r.samples["generator_lag"] = int64(len(m.open.lagUS))
	r.samples["spans"] = int64(len(tr.spans.all()))

	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.sp.name, r.base.seed))
	if err := tr.writeSpans(path, r.sp.names); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	res := result{Correct: true, Attempted: attempted, Failed: m.lost, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{layers[pl.name], pl.unit}
	}
	return res, nil
}

// quietly runs one measured phase, and again, up to phaseAttempts times,
// while the hypervisor stole more than maxSteal of the CPUs' time during
// it. It returns the index of the attempt with the least steal, the one
// that counts.
func (r *runner) quietly(name string, maxSteal float64, phase func() error) (int, error) {
	var (
		best      int
		bestShare = math.Inf(1)
		n         int
	)
	for n < phaseAttempts {
		s0, t0 := hostSteal(), now()
		if err := phase(); err != nil {
			return 0, err
		}
		share := stealShare(s0, t0)
		if share < bestShare {
			best, bestShare = n, share
		}
		if n++; share < maxSteal {
			break
		}
	}
	r.host[name+"_attempts"] = float64(n)
	r.host[name+"_steal_share"] = bestShare
	return best, nil
}

// quietClosed runs the closed loop through quietly and returns the
// throughput of the attempt that counts.
func (r *runner) quietClosed(p pipeline, s *stream, seconds float64) (float64, error) {
	var tputs []float64
	best, err := r.quietly("closed_loop", closedLoopSteal, func() error {
		t, err := r.closed(p, s, seconds)
		tputs = append(tputs, t)
		return err
	})
	if err != nil {
		return 0, err
	}
	return tputs[best], nil
}

// openStats summarizes one open-loop phase.
type openStats struct {
	n       int64     // updates offered
	cpuUS   float64   // process CPU per offered update
	lagUS   []float64 // how late each unit left, against its due time
	lastLag int64
	grown   bool // the pipeline's backlog grew over the phase
}

// open offers the schedule at the workload's fixed rate for the given
// time. Each unit is due when its last update is due; the generator sends
// it then, however late, so a stall delays every later unit and counts in
// their alerts' latency. With lat set the phase is measured: the latency
// clock is armed, the backlog sampled and the CPU time read.
func (r *runner) open(p pipeline, s *stream, seconds float64, lat *latencyClock) (openStats, error) {
	defer pinGenerator()()
	if lat != nil {
		// Collect the discarded set-ups and the warm-up's garbage first,
		// so each measured phase starts at the same point of the
		// collector's cycle instead of inheriting whatever is pending.
		runtime.GC()
	}
	period := 1e9 / r.sp.rate
	n := int64(seconds * r.sp.rate)
	k0 := s.k
	t0 := now() + int64(time.Millisecond)
	var st openStats
	if lat != nil {
		lat.arm(k0, k0+n, t0, period)
		defer lat.disarm()
	}
	var (
		backlog []int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	if lat != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					backlog = append(backlog, p.backlog())
				}
			}
		}()
	}
	cpu0 := cpuNS()
	var buf []event.Update
	for s.k < k0+n {
		due := t0 + int64(float64(r.sp.sched.last(s.k)-k0)*period)
		sleepUntil(due)
		st.lastLag = now() - due
		if lat != nil {
			st.lagUS = append(st.lagUS, float64(st.lastLag)/1e3)
		}
		buf = s.next(buf)
		if err := p.send(buf); err != nil {
			close(stop)
			wg.Wait()
			return st, err
		}
	}
	st.n = s.k - k0
	st.cpuUS = float64(cpuNS()-cpu0) / 1e3 / float64(st.n)
	close(stop)
	wg.Wait()
	if q := len(backlog) / 4; q > 0 {
		var first, last float64
		for i := 0; i < q; i++ {
			first += float64(backlog[i])
			last += float64(backlog[len(backlog)-1-i])
		}
		first, last = first/float64(q), last/float64(q)
		st.grown = last > 2*first+256
	}
	return st, nil
}

// honest rejects a measured open-loop phase in which the generator fell
// behind its schedule or the pipeline's backlog grew: its latencies would
// describe an overloaded system, not the offered rate.
func (r *runner) honest(o openStats) error {
	if p99 := quantile(append([]float64(nil), o.lagUS...), 0.99); p99 > 20e3 || o.lastLag > int64(50*time.Millisecond) {
		return fmt.Errorf("%w: generator fell behind (lag p99 %.0f µs, last %.0f µs)", errInvalid, p99, float64(o.lastLag)/1e3)
	}
	if o.grown {
		return fmt.Errorf("%w: backlog grew during the fixed-rate phase", errInvalid)
	}
	return nil
}

// closed runs the closed loop: the generator keeps at most the workload's
// window of updates in flight. Throughput is the median over eight equal
// slices of the phase, so one slow slice on a shared host does not move
// it.
func (r *runner) closed(p pipeline, s *stream, seconds float64) (float64, error) {
	const slices = 8
	runtime.GC() // as in open: start every closed loop at the same point
	slice := int64(seconds * 1e9 / slices)
	start := now()
	next, prevT, prevD := start+slice, start, p.done()
	var (
		rates   []float64
		buf     []event.Update
		blocked int64 // when the window last filled, 0 while not full
	)
	for len(rates) < slices {
		t := now()
		if t >= next {
			d := p.done()
			rates = append(rates, float64(d-prevD)/(float64(t-prevT)/1e9))
			next, prevT, prevD = next+slice, t, d
			continue
		}
		ok, err := p.ready(s.k)
		if err != nil {
			return 0, err
		}
		if !ok {
			// Updates that never complete (lost on a link) would hold the
			// window shut for good: fail loudly instead of reporting a
			// throughput of zero.
			if blocked == 0 {
				blocked = t
			} else if t-blocked > int64(time.Second) {
				return 0, fmt.Errorf("closed loop stalled: %d updates in flight for 1 s", s.k-p.done())
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		blocked = 0
		buf = s.next(buf)
		if err := p.send(buf); err != nil {
			return 0, err
		}
	}
	r.samples["closed_loop_slices"] = slices
	return median(rates), nil
}
