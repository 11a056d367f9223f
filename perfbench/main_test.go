package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"condmon/internal/event"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests check the
// harness against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one shrunken workload and returns its result line.
func runTiny(t *testing.T, args ...string) (result, error) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"--seconds", "1", "--tiny"}, args...), &out); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, nil
}

func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestTinyRunPrintsEveryMetric(t *testing.T) {
	bf := readBenchmark(t)
	if len(bf.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(specs()))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runTiny(t, "--workload", w.Name, "--seed", "3", "--trace", "0")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, bf.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			res, err = runTiny(t, "--workload", w.Name, "--seed", "3", "--trace", "1")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, bf.PerLayer)
		})
	}
}

func TestPerLayerTableMatchesBenchmark(t *testing.T) {
	bf := readBenchmark(t)
	var got, want []string
	for _, pl := range perLayer {
		got = append(got, pl.name+" "+pl.unit)
	}
	for _, pl := range bf.PerLayer {
		want = append(want, pl.Name+" "+pl.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics differ:\nharness   %v\nbenchmark %v", got, want)
	}
}

func TestLayersFileMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lf struct {
		Workloads map[string]struct {
			Rate   float64 `json:"offered_rate_updates_per_s"`
			Window int64   `json:"closed_loop_window_updates"`
		}
		Table []struct{ Metric string } `json:"layer_to_end_to_end"`
	}
	if err := json.Unmarshal(b, &lf); err != nil {
		t.Fatal(err)
	}
	for name, sp := range specs() {
		w, ok := lf.Workloads[name]
		if !ok || w.Rate != sp.rate || w.Window != sp.window {
			t.Errorf("%s: layers.json says rate %v window %d, harness %v %d", name, w.Rate, w.Window, sp.rate, sp.window)
		}
	}
	inTable := map[string]bool{}
	for _, row := range lf.Table {
		inTable[row.Metric] = true
	}
	for _, pl := range perLayer {
		if !inTable[pl.name] {
			t.Errorf("per-layer metric %s has no row in layers.json", pl.name)
		}
	}
}

// inputs renders everything a workload generates from a seed: the first
// updates of its schedule, its condition set, and its loss schedule.
func inputs(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	sp := specs()[name]
	var b bytes.Buffer
	s := newStream(seed, sp.names, sp.sched)
	var buf []event.Update
	for s.k < 20000 {
		buf = s.next(buf)
		for _, u := range buf {
			fmt.Fprintf(&b, "%s %d %x\n", u.Var, u.SeqNo, u.Value)
		}
	}
	for _, c := range churnConditions(seed, sp.names, 500) {
		fmt.Fprintf(&b, "%#v\n", c)
	}
	loss := seededLoss{seed: uint64(seed), p: fleetLoss, rep: &fleetReplica{}}
	for i := int64(1); i <= 2000; i++ {
		fmt.Fprint(&b, loss.Deliver(event.Update{SeqNo: i}, nil))
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for name := range specs() {
		a, b := inputs(t, name, 11), inputs(t, name, 11)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 generated different inputs twice", name)
		}
		if bytes.Equal(a, inputs(t, name, 12)) {
			t.Errorf("%s: seeds 11 and 12 generated identical inputs", name)
		}
	}
}

func TestScheduleIndexInvertsAt(t *testing.T) {
	for name, sp := range specs() {
		for k := int64(0); k < 50000; k++ {
			v, seq := sp.sched.at(k)
			if got := sp.sched.index(v, seq); got != k {
				t.Fatalf("%s: index(at(%d)) = %d", name, k, got)
			}
			last := sp.sched.last(k)
			if lv, _ := sp.sched.at(last); last < k || lv != v {
				t.Fatalf("%s: last(%d) = %d leaves the unit", name, k, last)
			}
		}
	}
}

// TestCorruptedReferenceFails is the negative control: with one reference
// alert corrupted, every workload's check must reject the run.
func TestCorruptedReferenceFails(t *testing.T) {
	for name := range specs() {
		t.Run(name, func(t *testing.T) {
			_, err := runTiny(t, "--workload", name, "--seed", "5", "--corrupt-reference")
			if err == nil || !strings.Contains(err.Error(), "reference mismatch") {
				t.Fatalf("corrupted reference: err = %v, want a reference mismatch", err)
			}
		})
	}
}
