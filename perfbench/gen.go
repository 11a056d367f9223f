package main

import (
	"fmt"

	"condmon/internal/event"
	"condmon/internal/workload"
)

// schedule fixes, for a workload, which variable and seqno the k-th
// generated update carries (k counts from 0 over the whole run) and how
// updates group into send units. It is a closed form in both directions,
// so an alert's triggering seqno maps back to its due time without any
// per-update bookkeeping.
type schedule interface {
	at(k int64) (v int, seq int64)
	index(v int, seq int64) int64
	// unit returns the number of updates in the send unit that starts at
	// k: all of one variable, published or injected in one call.
	unit(k int64) int
	// last returns the index of the last update of k's send unit.
	last(k int64) int64
}

// roundRobin sends runs of run updates, one variable after another.
type roundRobin struct{ vars, run int64 }

func (s roundRobin) at(k int64) (int, int64) {
	u, j := k/s.run, k%s.run
	return int(u % s.vars), (u/s.vars)*s.run + j + 1
}

func (s roundRobin) index(v int, seq int64) int64 {
	u := ((seq-1)/s.run)*s.vars + int64(v)
	return u*s.run + (seq-1)%s.run
}

func (s roundRobin) unit(k int64) int { return int(s.run - k%s.run) }

func (s roundRobin) last(k int64) int64 { return k - k%s.run + s.run - 1 }

// hotSpot sends one update per unit; nine of every ten go to variable 0,
// the tenth to the other variables in turn.
type hotSpot struct{ vars int64 }

func (s hotSpot) at(k int64) (int, int64) {
	q, r := k/10, k%10
	if r < 9 {
		return 0, 9*q + r + 1
	}
	cold := s.vars - 1
	return int(1 + q%cold), q/cold + 1
}

func (s hotSpot) index(v int, seq int64) int64 {
	if v == 0 {
		return 10*((seq-1)/9) + (seq-1)%9
	}
	m := (seq-1)*(s.vars-1) + int64(v-1)
	return 10*m + 9
}

func (s hotSpot) unit(int64) int { return 1 }

func (s hotSpot) last(k int64) int64 { return k }

// trigger returns the schedule index of an alert's freshest contributing
// update, with its variable and seqno.
func trigger(sched schedule, vidx map[event.VarName]int, a event.Alert) (v event.VarName, seq, k int64) {
	k = -1
	for name, h := range a.Histories {
		s := h.Recent[0].SeqNo
		if i := sched.index(vidx[name], s); i > k {
			v, seq, k = name, s, i
		}
	}
	return v, seq, k
}

// varNames returns v00, v01, ….
func varNames(n int) []event.VarName {
	out := make([]event.VarName, n)
	for i := range out {
		out[i] = event.VarName(fmt.Sprintf("v%02d", i))
	}
	return out
}

// mix is splitmix64: a cheap, well-spread hash for seeded decisions.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is the Data Monitor side of a workload: it walks the schedule and
// draws each variable's readings from its own seeded reactor source, so a
// variable's values depend only on the seed and the variable, never on
// timing.
type stream struct {
	sched schedule
	names []event.VarName
	src   []*workload.ReactorTemp
	k     int64
}

func newStream(seed int64, names []event.VarName, sched schedule) *stream {
	s := &stream{sched: sched, names: names, src: make([]*workload.ReactorTemp, len(names))}
	for i := range s.src {
		s.src[i] = workload.NewReactorTemp(int64(mix(uint64(seed)<<8 | uint64(i))))
	}
	return s
}

// next appends the next send unit to buf[:0] and returns it.
func (s *stream) next(buf []event.Update) []event.Update {
	buf = buf[:0]
	for n := s.sched.unit(s.k); n > 0; n-- {
		v, seq := s.sched.at(s.k)
		val, _ := s.src[v].Next()
		buf = append(buf, event.Update{Var: s.names[v], SeqNo: seq, Value: val})
		s.k++
	}
	return buf
}

// values regenerates the readings of the first n updates, per variable
// and indexed by seqno-1: the reference side of every correctness check.
func values(seed int64, names []event.VarName, sched schedule, n int64) [][]float64 {
	s := newStream(seed, names, sched)
	out := make([][]float64, len(names))
	var buf []event.Update
	for s.k < n {
		buf = s.next(buf)
		v, _ := s.sched.at(s.k - 1) // a unit is all of one variable
		for _, u := range buf {
			out[v] = append(out[v], u.Value)
		}
	}
	return out
}
