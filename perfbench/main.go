// Command perfbench is the Dragoon marketplace benchmark. It runs one seeded
// workload through the program's public entry points for a fixed time,
// checks every task against its own computation, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// alternates untraced and traced passes and reports per-layer metrics. Times
// are read on the process's CPU clock (clock.go). See README.md for the
// workloads, the metrics and the reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fresh processes a run's setup_s is the median
// of: the run's own and set-up-only ones.
const setupSamples = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "imagenet_market | imagenet_stream | reject_market_testgroup")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	traceDir := flag.String("trace-dir", "", "directory the traced pass writes its spans to")
	setupOnly := flag.Bool("setup-only", false, "set up, print the set-up CPU seconds and exit")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	in, took, err := setup(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		os.Exit(1)
	}
	if *setupOnly {
		fmt.Println(took.Seconds())
		return
	}
	rep, err := run(context.Background(), in, runConfig{
		seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, setup: took,
		setupSamples: setupSamples, log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
}

// setup generates the run's inputs, fills the process-wide tables and
// builds the first pass's world, returning the CPU time that took. It is
// what a fresh deployment pays before its first task.
func setup(w workload, seed int64) (*inputs, time.Duration, error) {
	c0 := cpuNow()
	in, err := generate(w, seed)
	if err != nil {
		return nil, 0, err
	}
	g := w.group()
	if err := warmUp(g); err != nil {
		return nil, 0, err
	}
	if _, err := in.specs(g, 0); err != nil {
		return nil, 0, err
	}
	if len(in.population()) == 0 {
		return nil, 0, fmt.Errorf("empty population")
	}
	return in, cpuNow() - c0, nil
}

type runConfig struct {
	seconds  int
	trace    bool
	traceDir string
	setup    time.Duration
	// setupSamples is how many set-ups setup_s is the median of; all but
	// the run's own run in fresh processes.
	setupSamples int
	log          io.Writer
}

// measure runs whole untraced passes until the next one would end after
// the budget (at least one). Every pass draws requester keys of its own,
// and stream pass p runs on the p-th schedule.
func measure(ctx context.Context, in *inputs, budget time.Duration, log io.Writer) []*passStats {
	var out []*passStats
	t0 := time.Now()
	var longest time.Duration
	for pass := 0; ; pass++ {
		p0 := time.Now()
		var ps *passStats
		if in.w.rate > 0 {
			ps, _ = streamPass(ctx, in, pass, pass, nil)
		} else {
			ps = marketPass(ctx, in, pass)
		}
		out = append(out, ps)
		fmt.Fprintf(log, "perfbench: pass %d: %.3fs wall, %.3fs CPU, %.1f questions per CPU second\n",
			pass, ps.wall.Seconds(), ps.busy.Seconds(), float64(ps.questions)/ps.busy.Seconds())
		longest = max(longest, time.Since(p0))
		if time.Since(t0)+longest > budget {
			return out
		}
	}
}

// setupChild runs the set-up once more in a fresh process and returns its
// CPU seconds.
func setupChild(in *inputs) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", in.w.name, "--seed", strconv.FormatInt(in.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	line := strings.TrimSpace(string(b))
	v, err := strconv.ParseFloat(line, 64)
	if err != nil {
		return 0, fmt.Errorf("set-up process printed %q", line)
	}
	return v, nil
}

// run measures one workload for cfg.seconds and builds the report.
func run(ctx context.Context, in *inputs, cfg runConfig) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	if cfg.trace {
		return rep, traceRun(ctx, in, cfg, rep)
	}

	passes := measure(ctx, in, time.Duration(cfg.seconds)*time.Second, cfg.log)
	setups := []float64{cfg.setup.Seconds()}
	for len(setups) < cfg.setupSamples {
		v, err := setupChild(in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, v)
	}

	var qps, lat, gas, alloc []float64
	for _, ps := range passes {
		tally(rep, ps, len(in.tasks), cfg.log)
		q := float64(len(in.tasks) * in.w.n)
		qps = append(qps, float64(ps.questions)/ps.busy.Seconds())
		gas = append(gas, float64(ps.gas)/q)
		alloc = append(alloc, float64(ps.allocs)/1e6/(q/1000))
		if in.w.rate > 0 {
			lat = append(lat, ps.latencies...)
		} else {
			// A batch reports every task settled when RunContext
			// returns, so each task's latency is its pass's time.
			lat = append(lat, ms(ps.busy))
		}
	}
	m := rep.Metrics
	m["questions_per_cpu_s"] = metric{median(qps), "1/s"}
	m["settle_p50_cpu_ms"] = metric{median(lat), "ms"}
	m["setup_s"] = metric{median(setups), "s"}
	m["gas_per_question"] = metric{median(gas), "gas"}
	m["alloc_mb_per_kq"] = metric{median(alloc), "MB/kq"}
	// The live heap is read after the first pass: what a fresh deployment
	// holds once it has run one batch or one stream.
	m["heap_live_mb"] = metric{float64(passes[0].heapLive) / 1e6, "MB"}
	return rep, nil
}

// tally adds a pass's task counts to the report and logs its failures.
func tally(rep *report, ps *passStats, tasks int, log io.Writer) {
	rep.Attempted += tasks
	rep.Failed += ps.failed
	for _, err := range ps.errs {
		fmt.Fprintln(log, "perfbench: check failed:", err)
	}
}
