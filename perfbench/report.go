package main

// The traced runs: untraced and traced passes alternate over the same
// inputs (each with requester keys of its own), every traced pass must
// reproduce its untraced partner's per-task outcomes, and the per-layer
// metrics are pooled over the traced passes.

import (
	"context"
	"fmt"
	"math"
	"time"

	"dragoon/internal/contract"
)

// gasMethods are the contract methods chain.gas.<method>_per_q reports.
var gasMethods = []string{
	contract.MethodPublish, contract.MethodCommit, contract.MethodReveal, contract.MethodGolden,
	contract.MethodOutrange, contract.MethodEvaluate, contract.MethodFinalize,
}

// layerTotals accumulates what the traced passes of one run measured.
type layerTotals struct {
	tr               *tracer
	questions, tasks int
	passes           int
	traced, base     time.Duration // CPU time of the traced passes and their untraced partners
	sc               streamCounts
	late             []float64
}

func (lt *layerTotals) add(sc *streamCounts) {
	lt.sc.steps += sc.steps
	lt.sc.activeSum += sc.activeSum
	lt.sc.roundsSum += sc.roundsSum
	lt.sc.admitWait = append(lt.sc.admitWait, sc.admitWait...)
	lt.sc.retained += sc.retained
	mc, t := &sc.mc, &lt.sc.mc
	t.txs += mc.txs
	t.reverted += mc.reverted
	t.calldata += mc.calldata
	t.vpkeProofs += mc.vpkeProofs
	t.reexecuted += mc.reexecuted
	t.audited += mc.audited
	t.cts += mc.cts
	for k, v := range mc.gasByMethod {
		t.gasByMethod[k] += v
	}
}

// sameOutcomes checks that a traced pass reproduced the untraced one.
func sameOutcomes(base, traced *passStats) error {
	if len(base.outcomes) != len(traced.outcomes) {
		return fmt.Errorf("traced pass has %d outcomes, untraced %d", len(traced.outcomes), len(base.outcomes))
	}
	for i := range base.outcomes {
		if !base.outcomes[i].equal(traced.outcomes[i]) {
			return fmt.Errorf("task %d: traced outcome differs from the untraced pass", i)
		}
	}
	return nil
}

// traceRun alternates untraced and traced passes over the same inputs, each
// with requester keys of its own, until the next pair would end after the
// run's time (at least one pair). The two passes of a stream pair run on
// the same schedule.
func traceRun(ctx context.Context, in *inputs, cfg runConfig, rep *report) error {
	tr, err := newTracer(in.w.group())
	if err != nil {
		return err
	}
	lt := &layerTotals{tr: tr, sc: streamCounts{mc: marketCounts{gasByMethod: map[string]uint64{}}}}
	budget := time.Duration(cfg.seconds) * time.Second
	t0 := time.Now()
	var longest time.Duration
	for pair := 0; ; pair++ {
		p0 := time.Now()
		var base, traced *passStats
		var sc *streamCounts
		if in.w.rate > 0 {
			base, _ = streamPass(ctx, in, 2*pair, pair, nil)
			traced, sc = streamPass(ctx, in, 2*pair+1, pair, tr)
		} else {
			base = marketPass(ctx, in, 2*pair)
			var mc *marketCounts
			traced, mc = tracedMarketPass(ctx, in, 2*pair+1, tr)
			sc = &streamCounts{mc: *mc}
		}
		tally(rep, base, len(in.tasks), cfg.log)
		tally(rep, traced, len(in.tasks), cfg.log)
		if base.failed == 0 && traced.failed == 0 {
			if err := sameOutcomes(base, traced); err != nil {
				fmt.Fprintln(cfg.log, "perfbench:", err)
				rep.Correct = false
			}
		}
		lt.passes++
		lt.questions += len(in.tasks) * in.w.n
		lt.tasks += len(in.tasks)
		lt.traced += traced.busy
		lt.base += base.busy
		lt.late = append(lt.late, base.late...)
		lt.add(sc)
		longest = max(longest, time.Since(p0))
		if time.Since(t0)+longest > budget {
			break
		}
	}
	tr.write(cfg.traceDir, fmt.Sprintf("%s_seed%d.json", in.w.name, in.seed))
	layerMetrics(rep, lt)
	return nil
}

// layerMetrics fills the report with every per-layer metric. Layers a
// workload does not reach read 0.
func layerMetrics(rep *report, lt *layerTotals) {
	m := rep.Metrics
	tr, sc, mc := lt.tr, lt.sc, lt.sc.mc
	q := float64(lt.questions)
	passes := float64(lt.passes)
	usPerQ := func(ns int64) float64 { return float64(ns) / 1e3 / q }
	perCt := func(n int64) float64 {
		if mc.cts == 0 {
			return 0
		}
		return float64(n) / float64(mc.cts)
	}
	self, wall := tr.selfTimes()

	m["market.setup.us_per_q"] = metric{usPerQ(self[layerSetup]), "us"}
	m["protocol.requester.us_per_q"] = metric{usPerQ(self[layerRequester]), "us"}
	m["protocol.requester.varmuls_per_ct"] = metric{perCt(tr.varmuls[layerRequester].Load()), "count"}
	m["protocol.requester.vpke_proofs_per_q"] = metric{float64(mc.vpkeProofs) / q, "count"}
	m["protocol.requester.alloc_kb_per_q"] = metric{float64(tr.allocs[layerRequester]) / 1e3 / q, "kB"}
	m["protocol.harvest.us_per_q"] = metric{usPerQ(self[layerHarvest]), "us"}
	m["protocol.harvest.varmuls_per_ct"] = metric{perCt(tr.varmuls[layerHarvest].Load()), "count"}
	m["protocol.worker.us_per_q"] = metric{usPerQ(self[layerWorker]), "us"}
	m["protocol.worker.alloc_kb_per_q"] = metric{float64(tr.allocs[layerWorker]) / 1e3 / q, "kB"}

	m["chain.us_per_q"] = metric{usPerQ(self[layerChain]), "us"}
	m["chain.txs_per_q"] = metric{float64(mc.txs) / q, "count"}
	m["chain.reverted_txs"] = metric{float64(mc.reverted) / passes, "count"}
	m["chain.reexecuted_txs"] = metric{float64(mc.reexecuted) / passes, "count"}
	m["chain.calldata_bytes_per_q"] = metric{float64(mc.calldata) / q, "B"}
	for _, meth := range gasMethods {
		m["chain.gas."+meth+"_per_q"] = metric{float64(mc.gasByMethod[meth]) / q, "gas"}
	}

	m["market.audit.us_per_q"] = metric{usPerQ(self[layerAudit]), "us"}
	m["market.audit.proofs"] = metric{float64(mc.audited) / passes, "count"}
	m["contract.observer.us_per_q"] = metric{usPerQ(self[layerObserver]), "us"}

	builds := tr.tableBuilds.Load()
	m["group.varmul_us_per_q"] = metric{usPerQ(tr.varmulNs.Load()), "us"}
	m["group.unmarshal_us_per_q"] = metric{usPerQ(tr.unmarshNs.Load()), "us"}
	m["group.table_builds"] = metric{float64(builds) / passes, "count"}
	m["group.table_build_us_per_q"] = metric{usPerQ(tr.tableNs.Load()), "us"}
	fixedPerTable := 0.0
	if builds > 0 {
		fixedPerTable = float64(tr.fixedMuls.Load()) / float64(builds)
	}
	m["group.fixed_muls_per_table"] = metric{fixedPerTable, "count"}

	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["service.step_us_per_q"] = metric{usPerQ(self[layerService]), "us"}
	m["service.rounds_per_task"] = metric{ratio(sc.roundsSum, lt.tasks), "count"}
	m["service.active_per_round"] = metric{ratio(sc.activeSum, sc.steps), "count"}
	m["service.admit_wait_ms"] = metric{zeroNaN(median(sc.admitWait)), "ms"}
	m["service.retained_receipts"] = metric{float64(sc.retained) / passes, "count"}
	m["loadgen.late_p50_ms"] = metric{zeroNaN(median(lt.late)), "ms"}
	m["loadgen.late_max_ms"] = metric{zeroNaN(quantile(lt.late, 1)), "ms"}

	var layered int64
	for l := layerSetup; l < numLayers; l++ {
		layered += self[l]
	}
	m["trace.overhead_ratio"] = metric{float64(lt.traced) / float64(lt.base), "ratio"}
	m["trace.layer_sum_ratio"] = metric{float64(layered) / float64(wall), "ratio"}
}

// zeroNaN maps the NaN of an empty sample to 0.
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
