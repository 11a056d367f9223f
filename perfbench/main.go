// Command perfbench is condmon's end-to-end benchmark. It wires the
// packages the way the daemons do — UDP front links into CE replicas,
// the multiplexed back link, AD filters with their WAL and the auditor,
// or the dynamic runtime.Engine — all in one process over loopback, and
// measures them from outside, around each call into a layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet_lossy --seed 1 --seconds 30 --trace 0
//
// Each run sets the pipeline up several times (setup_s is their median),
// warms it up at the workload's fixed offered rate, measures alert
// latency and CPU per update in an open-loop fixed-rate phase, measures
// throughput in a closed-loop phase, and then checks every displayed
// alert against a reference computed from the seed. A measured phase
// during which the hypervisor stole CPU time runs again. A run whose output
// disagrees with the reference, or whose open loop fell behind, exits
// non-zero and prints no result. The last line of standard output is the
// result: end-to-end metrics with --trace 0, per-layer metrics from a
// separately built, instrumented pipeline with --trace 1. The line before
// it carries provenance, the sample count behind every figure and the
// host's steal per phase.
// layers.json names what each workload exercises and bypasses, and which
// end-to-end metric each per-layer metric should move. The benchmark's
// own tests run with `go test ./...` in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"condmon/internal/event"
	"condmon/internal/obs"
)

// pipeline is one workload's system under test, built by its spec.
type pipeline interface {
	// send publishes or injects one unit of the schedule.
	send(us []event.Update) error
	// ready reports whether the closed loop may send another unit with
	// sent updates already offered; it may block (an Engine drain).
	ready(sent int64) (bool, error)
	// done counts updates that every CE has fed and whose alerts have
	// been offered at the AD.
	done() int64
	// quiesce waits until every sent update is done or provably lost and
	// returns the number lost.
	quiesce(sent int64) (int64, error)
	// backlog is the current length of the pipeline's queues.
	backlog() int64
	// finish stops the pipeline and checks its output against the
	// reference; layers receives the per-layer metrics of a traced run.
	finish(sent int64, layers map[string]float64) error
	// close tears the pipeline down without checking it.
	close()
}

// env is what a spec builds a pipeline from.
type env struct {
	seed    int64
	tiny    bool    // shrink sizes for the benchmark's own tests
	corrupt bool    // corrupt the reference: the negative control
	dir     string  // scratch directory for WALs
	tr      *tracer // nil: untraced
	lat     *latencyClock
	sched   schedule
	window  int64
}

// reg is the registry the program's own counters go to: only the traced
// run attaches one.
func (e *env) reg() *obs.Registry {
	if e.tr == nil {
		return nil
	}
	return e.tr.reg
}

// spec is one named workload.
type spec struct {
	name  string
	names []event.VarName
	sched schedule
	// rate is the fixed offered rate of the open-loop phases in
	// updates/s, frozen so that later runs are comparable: 20–45% of the
	// closed-loop rate on a two-CPU host. Nearer half, collector cycles
	// and scheduling made run-to-run latency spreads exceed the bounds.
	rate float64
	// window bounds the updates in flight in the closed loop.
	window int64
	// replicas is the number of CE replicas each update is offered to.
	replicas int
	// setups is how many times a run builds the pipeline; setup_s is the
	// median.
	setups int
	build  func(e *env) (pipeline, error)
}

func specs() map[string]*spec {
	return map[string]*spec{
		"fleet_lossy":      fleetSpec(),
		"many_conds_churn": churnSpec(),
		"hot_striped":      hotSpec(),
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose open loop was not honest: the generator
// fell behind its schedule or a backlog grew. Such a run records nothing.
var errInvalid = errors.New("invalid run")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name: fleet_lossy, many_conds_churn or hot_striped")
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 30, "measured seconds per run")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from an instrumented run")
	tiny := fl.Bool("tiny", false, "shrink sizes (the benchmark's own tests)")
	corrupt := fl.Bool("corrupt-reference", false, "corrupt the reference; the run must fail")
	if err := fl.Parse(args); err != nil {
		return err
	}
	sp, ok := specs()[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runner{
		sp: sp, seconds: *seconds, samples: map[string]int64{}, host: map[string]float64{},
		base: env{seed: *seed, tiny: *tiny, corrupt: *corrupt, dir: dir, sched: sp.sched, window: sp.window},
	}
	if *tiny {
		r.sp.rate /= 10
	}
	generatorProcs()
	var res result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		return err
	}
	prov := provenance(*name, *seed, *seconds, *trace)
	line, err := json.Marshal(map[string]any{"provenance": prov, "samples": r.samples, "host": r.host})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// scratchDir makes a temporary directory inside the working directory's
// build area, so a run writes nowhere outside its checkout.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// provenance records where and how a result was produced.
func provenance(name string, seed int64, seconds float64, trace int) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// A checkout that is not a repository must not borrow the commit
		// of a repository above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if b, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"workload": name, "seed": seed, "run_seconds": seconds, "trace": trace,
		"commit": commit, "source_sha256": sourceDigest(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "cpu": cpu,
	}
}

// sourceDigest hashes the Go sources and module files under the working
// directory: the commit stand-in for checkouts that are not git
// repositories.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
