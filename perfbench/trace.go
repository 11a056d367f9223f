package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"condmon/internal/event"
	"condmon/internal/obs"
)

// Span names, recorded from the benchmark's own call sites around each
// call into a layer. parentOf fixes each name's parent, so a span only
// stores its own name.
const (
	spPublish  = iota + 1 // generator → UDPPublisher.Publish/PublishBatch
	spDispatch            // receive goroutine inside the Dispatch callback
	spFeed                // ce.Evaluator.FeedBatch, child of dispatch
	spMuxSend             // transport.MuxSender.Send, child of dispatch
	spOffer               // AD filter offer (durable-wrapped on fleet_lossy)
	spAudit               // audit.Auditor observe, child of offer
	spInject              // runtime.Engine.InjectBatch
	nSpanNames
)

var spanNames = [nSpanNames]string{"", "transport.publish", "transport.dispatch", "ce.feed",
	"transport.mux_send", "ad.offer", "audit.observe", "runtime.inject"}

var parentOf = [nSpanNames]int{spDispatch: 0, spFeed: spDispatch, spMuxSend: spDispatch, spAudit: spOffer}

// span is one recorded interval. Spans of one update share (v, seq), the
// update's identity; spans of an alert carry its freshest contributing
// update.
type span struct {
	seq        int64
	start, end int64
	v          uint16
	name       uint8
}

// firstSampled returns the seqno of the first sampled update of a run.
func firstSampled(us []event.Update) (int64, bool) {
	for _, u := range us {
		if sampled(u.SeqNo) {
			return u.SeqNo, true
		}
	}
	return 0, false
}

// sampled picks the updates whose spans are kept: one in 64 per variable,
// keyed on the seqno so every layer picks the same updates.
func sampled(seq int64) bool { return seq%64 == 1 }

// tracer is the traced run's recorder. A nil *tracer is the untraced run:
// call sites test for nil before reading the clock, so tracing off costs
// one comparison per call.
type tracer struct {
	names map[event.VarName]int
	spans *tape[span]
	reg   *obs.Registry

	publish, dispatch, feed, muxSend, offer, auditObs, auditEmit, inject timer

	// hops holds publish times of sampled updates until their dispatch,
	// and send times of sampled alerts until the AD reads them.
	mu        sync.Mutex
	pubAt     map[hopKey]int64
	sentAt    map[string]int64
	frontHops *tape[int64]
	muxHops   *tape[int64]
}

type hopKey struct {
	v   event.VarName
	seq int64
}

func newTracer(names []event.VarName) (*tracer, error) {
	t := &tracer{
		names:  make(map[event.VarName]int, len(names)),
		reg:    obs.NewRegistry(),
		pubAt:  make(map[hopKey]int64),
		sentAt: make(map[string]int64),
	}
	for i, n := range names {
		t.names[n] = i
	}
	var err error
	if t.spans, err = newTape[span](1 << 22); err != nil {
		return nil, err
	}
	if t.frontHops, err = newTape[int64](1 << 22); err != nil {
		return nil, err
	}
	if t.muxHops, err = newTape[int64](1 << 22); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracer) release() {
	t.spans.release()
	t.frontHops.release()
	t.muxHops.release()
}

// record keeps the span when its update is sampled.
func (t *tracer) record(name int, v event.VarName, seq, start, end int64) {
	if sampled(seq) {
		t.spans.add(span{seq: seq, start: start, end: end, v: uint16(t.names[v]), name: uint8(name)})
	}
}

// published notes the publish instant of each sampled update of a unit.
func (t *tracer) published(us []event.Update, at int64) {
	for _, u := range us {
		if sampled(u.SeqNo) {
			t.mu.Lock()
			t.pubAt[hopKey{u.Var, u.SeqNo}] = at
			t.mu.Unlock()
		}
	}
}

// dispatched turns the sampled updates of a run into front-hop samples:
// publish call → entry of the Dispatch callback carrying the update.
func (t *tracer) dispatched(us []event.Update, at int64) {
	for _, u := range us {
		if !sampled(u.SeqNo) {
			continue
		}
		k := hopKey{u.Var, u.SeqNo}
		t.mu.Lock()
		p, ok := t.pubAt[k]
		t.mu.Unlock()
		if ok {
			t.frontHops.add(at - p)
		}
	}
}

// sent notes the Send instant of a sampled alert on a back-link stream.
func (t *tracer) sent(stream uint32, a event.Alert, trigger int64, at int64) {
	if sampled(trigger) {
		t.mu.Lock()
		t.sentAt[fmt.Sprint(stream, a.Key())] = at
		t.mu.Unlock()
	}
}

// arrived turns a sampled alert's AD read into a mux-hop sample: Send →
// read from MuxListener.Alerts.
func (t *tracer) arrived(stream uint32, a event.Alert, trigger int64, at int64) {
	if !sampled(trigger) {
		return
	}
	k := fmt.Sprint(stream, a.Key())
	t.mu.Lock()
	s, ok := t.sentAt[k]
	delete(t.sentAt, k)
	t.mu.Unlock()
	if ok {
		t.muxHops.add(at - s)
	}
}

// counter reads a program counter from the registry (0 when absent).
func (t *tracer) counter(name string) float64 {
	p, ok := t.reg.Get(name)
	if !ok {
		return 0
	}
	return float64(p.Value)
}

// sumCounters adds every registered counter whose name has the prefix
// and suffix (per-socket families such as transport.recv.<i>.reordered).
func (t *tracer) sumCounters(prefix, suffix string) float64 {
	var s float64
	for _, n := range t.reg.Names() {
		if len(n) >= len(prefix)+len(suffix) && n[:len(prefix)] == prefix && n[len(n)-len(suffix):] == suffix {
			s += t.counter(n)
		}
	}
	return s
}

// writeSpans writes the kept spans, one JSON object per line, followed by
// a self-time summary per span name: a span's duration minus the part of
// it its children cover.
func (t *tracer) writeSpans(path string, names []event.VarName) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type key struct {
		v   uint16
		seq int64
	}
	spans := t.spans.all()
	byID := make(map[key][]span)
	for _, s := range spans {
		k := key{s.v, s.seq}
		byID[k] = append(byID[k], s)
		if err := enc.Encode(map[string]any{
			"name": spanNames[s.name], "parent": spanNames[parentOf[s.name]],
			"var": names[s.v], "seq": s.seq, "start_ns": s.start, "end_ns": s.end,
		}); err != nil {
			f.Close()
			return err
		}
	}
	self := make(map[string][]float64)
	for _, group := range byID {
		for _, s := range group {
			d := s.end - s.start
			for _, c := range group {
				if parentOf[c.name] == int(s.name) && c.start >= s.start && c.end <= s.end {
					d -= c.end - c.start
				}
			}
			self[spanNames[s.name]] = append(self[spanNames[s.name]], float64(d)/1e3)
		}
	}
	summary := make(map[string]map[string]float64)
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := self[k]
		summary[k] = map[string]float64{"spans": float64(len(xs)), "self_p50_us": quantile(xs, 0.5), "self_p99_us": quantile(xs, 0.99)}
	}
	if err := enc.Encode(map[string]any{"self_time": summary}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
