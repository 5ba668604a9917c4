package main

// The two market workloads: a batch of tasks launched together on one
// chain and run to settlement. The untraced pass goes through
// market.RunContext; the traced pass re-drives the same run from the
// exported market pieces (market.StepRound's order, with its worker
// fan-out over internal/parallel), timing the calls into each layer.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dragoon/internal/batch"
	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/opts"
	"dragoon/internal/parallel"
	"dragoon/internal/swarm"
)

// maxRounds mirrors market.RunContext's default round bound.
const maxRounds = 40

// passStats is what one pass reports.
type passStats struct {
	wall time.Duration
	// busy is the CPU time the program spent on the pass: all of
	// market.RunContext, or the service calls of a stream.
	busy      time.Duration
	questions int // questions of tasks that settled and passed the oracle
	failed    int
	gas       uint64
	allocs    uint64 // heap bytes allocated during the pass
	heapLive  uint64 // live heap after a forced GC, results still reachable
	outcomes  []outcome
	errs      []error

	// Stream passes only, in ms of the pass's CPU clock.
	latencies []float64 // from due time to the Poll reporting settlement
	late      []float64 // how far each submission ran behind its due time
}

func (in *inputs) options() opts.Options {
	return opts.Options{Parallelism: parallelism, BatchVerify: in.w.batch}
}

// heapAllocated returns the cumulative heap bytes allocated.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkMarket runs the oracle over a market result.
func checkMarket(in *inputs, ps *passStats, tasks []market.TaskResult, led *ledger.Ledger) {
	ps.outcomes = make([]outcome, len(in.tasks))
	for ti := range in.tasks {
		tr := &tasks[ti]
		ps.gas += tr.GasTotal
		o, err := checkTask(in, ti, tr, led, tr.Rounds)
		if err != nil {
			ps.failed++
			ps.errs = append(ps.errs, err)
			continue
		}
		ps.outcomes[ti] = o
		ps.questions += in.tasks[ti].inst.Task.N()
	}
	if err := checkSupply(in, led, len(in.tasks)); err != nil {
		ps.failed = len(in.tasks)
		ps.questions = 0
		ps.errs = append(ps.errs, err)
	}
}

// failAll marks every task of a pass failed after err stopped it.
func failAll(in *inputs, ps *passStats, err error) *passStats {
	ps.failed = len(in.tasks)
	ps.questions = 0
	ps.errs = append(ps.errs, err)
	return ps
}

// marketPass runs pass p untraced through market.RunContext.
func marketPass(ctx context.Context, in *inputs, pass int) *passStats {
	ps := &passStats{}
	g := in.w.group()
	specs, err := in.specs(g, pass)
	if err != nil {
		return failAll(in, ps, err)
	}
	cfg := market.Config{Tasks: specs, Group: g, Population: in.population(), Seed: in.seed, Options: in.options()}
	a0 := heapAllocated()
	t0, c0 := time.Now(), cpuNow()
	res, err := market.RunContext(ctx, cfg)
	ps.wall, ps.busy = time.Since(t0), cpuNow()-c0
	ps.allocs = heapAllocated() - a0
	if err != nil {
		return failAll(in, ps, err)
	}
	ps.heapLive = liveHeap()
	checkMarket(in, ps, res.Tasks, res.Ledger)
	runtime.KeepAlive(res)
	return ps
}

// marketCounts are the exact counts a traced market pass gathers.
type marketCounts struct {
	txs, reverted, calldata, vpkeProofs int
	gasByMethod                         map[string]uint64
	reexecuted                          uint64
	audited                             int
	cts                                 int // submitted ciphertexts
}

// tracedMarketPass runs pass p re-driven from the exported market pieces,
// recording spans into tr.
func tracedMarketPass(ctx context.Context, in *inputs, pass int, tr *tracer) (*passStats, *marketCounts) {
	ps := &passStats{}
	mc := &marketCounts{gasByMethod: map[string]uint64{}}
	g := tr.group
	specs, err := in.specs(g, pass)
	if err != nil {
		return failAll(in, ps, err), mc
	}
	pop := in.population()
	o := in.options()

	a0 := heapAllocated()
	t0, c0 := time.Now(), cpuNow()
	root := tr.begin("pass", layerOther, -1, "", 0)

	sid, done := tr.enter(layerSetup, layerNames[layerSetup], root, 0)
	led := ledger.New()
	ch := chain.New(led, nil)
	ch.SetParallelExecution(chain.ResolveExecWorkers(o.ParallelExec, o.Parallelism))
	store := swarm.New()
	popAddrs := make([]chain.Address, len(pop))
	for i, m := range pop {
		popAddrs[i] = market.WorkerAddr(i, m.Name)
	}
	tasks := make([]*market.Runtime, len(specs))
	for ti, spec := range specs {
		id := tr.begin("market.NewRuntime", layerSetup, sid, spec.Instance.Task.ID, 0)
		t, err := market.NewRuntime(market.RuntimeConfig{
			Spec: spec, Index: ti, Seed: market.DerivedTaskSeed(in.seed, ti), Group: g,
			Backend: ch, Store: store, Population: pop, PopAddrs: popAddrs,
			BatchVerify: o.BatchVerify,
		})
		tr.end(id)
		if err != nil {
			done()
			tr.end(root)
			return failAll(in, ps, err), mc
		}
		t.Fund(led)
		tasks[ti] = t
	}
	for _, t := range tasks {
		id := tr.begin("market.Launch", layerSetup, sid, string(t.ID()), 0)
		err := t.Launch()
		tr.end(id)
		if err != nil {
			done()
			tr.end(root)
			return failAll(in, ps, err), mc
		}
	}
	var auditor *market.Auditor
	if batch.Resolve(o.BatchVerify) {
		auditor = market.NewAuditor(g)
		for _, t := range tasks {
			auditor.Register(t.ID(), t.RequesterKey().H)
		}
	}
	done()

	_, reexec0 := ch.ExecStats()
	for round := 0; round < maxRounds; round++ {
		var active []*market.Runtime
		for _, t := range tasks {
			if !t.Finished() {
				active = append(active, t)
			}
		}
		if len(active) == 0 {
			break
		}
		if err := tracedStepRound(ctx, ch, active, o.Parallelism, auditor, tr, root, mc); err != nil {
			tr.end(root)
			return failAll(in, ps, err), mc
		}
	}
	_, reexec1 := ch.ExecStats()
	mc.reexecuted = reexec1 - reexec0

	hid, done := tr.enter(layerHarvest, layerNames[layerHarvest], root, ch.Round())
	results := make([]market.TaskResult, len(tasks))
	for ti, t := range tasks {
		id := tr.begin("market.Runtime.Result", layerHarvest, hid, string(t.ID()), ch.Round())
		results[ti], err = t.Result(ch, led)
		tr.end(id)
		if err != nil {
			done()
			tr.end(root)
			return failAll(in, ps, err), mc
		}
	}
	done()
	tr.end(root)
	ps.wall, ps.busy = time.Since(t0), cpuNow()-c0
	ps.allocs = heapAllocated() - a0
	if auditor != nil {
		mc.audited = auditor.Count()
	}
	if err := led.CheckConservation(); err != nil {
		return failAll(in, ps, err), mc
	}
	for _, t := range in.tasks {
		mc.cts += len(t.answers) * t.inst.Task.N()
	}
	ps.heapLive = liveHeap()
	checkMarket(in, ps, results, led)
	runtime.KeepAlive(ch)
	return ps, mc
}

// tracedStepRound is market.StepRound with a span around each layer's
// calls: requesters step in task order, answers resolve sequentially in
// (task, worker) order, the worker crypto of every task fans out over one
// pool, transactions enter the mempool in (task, worker) order, one round
// is mined, the auditor folds the round's rejection proofs and every task
// folds the round's events into its phase observer.
func tracedStepRound(ctx context.Context, ch *chain.Chain, active []*market.Runtime, workers int,
	auditor *market.Auditor, tr *tracer, root int, mc *marketCounts) error {
	round := ch.Round()

	rid, done := tr.enter(layerRequester, layerNames[layerRequester], root, round)
	for _, t := range active {
		id := tr.begin("market.Runtime.StepRequester", layerRequester, rid, string(t.ID()), round)
		err := t.StepRequester()
		tr.end(id)
		if err != nil {
			done()
			return fmt.Errorf("task %q requester step (round %d): %w", t.ID(), round, err)
		}
	}
	done()

	wid, done := tr.enter(layerWorker, layerNames[layerWorker], root, round)
	type slot struct {
		t *market.Runtime
		i int
	}
	var slots []slot
	for _, t := range active {
		for i := 0; i < t.Workers(); i++ {
			if err := t.Prepare(i); err != nil {
				done()
				return fmt.Errorf("task %q worker %d prepare (round %d): %w", t.ID(), i, round, err)
			}
			slots = append(slots, slot{t: t, i: i})
		}
	}
	txsPerSlot, err := parallel.Map(ctx, len(slots), workers, func(k int) ([]*chain.Tx, error) {
		s := slots[k]
		id := tr.begin("market.Runtime.WorkerTxs", layerWorker, wid, string(s.t.ID()), round)
		defer tr.end(id)
		return s.t.WorkerTxs(s.i)
	})
	done()
	if err != nil {
		return fmt.Errorf("round %d worker step: %w", round, err)
	}

	_, done = tr.enter(layerChain, layerNames[layerChain], root, round)
	for _, txs := range txsPerSlot {
		for _, tx := range txs {
			if err := ch.Submit(tx); err != nil {
				done()
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
	}
	rcpts, err := ch.MineRound()
	if err != nil {
		done()
		return fmt.Errorf("mining round %d: %w", round, err)
	}
	countReceipts(rcpts, mc)
	done()

	if auditor != nil {
		_, done := tr.enter(layerAudit, layerNames[layerAudit], root, ch.Round())
		err := auditor.Audit(ch.Round(), rcpts)
		done()
		if err != nil {
			return err
		}
	}

	oid, done := tr.enter(layerObserver, layerNames[layerObserver], root, ch.Round())
	defer done()
	for _, t := range active {
		id := tr.begin("market.Runtime.CheckPhase", layerObserver, oid, string(t.ID()), ch.Round())
		err := t.CheckPhase(ch.Round())
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// countReceipts folds one mined round's receipts into the chain counts,
// including the VPKE openings the requesters' rejections carry.
func countReceipts(rcpts []*chain.Receipt, mc *marketCounts) {
	for _, r := range rcpts {
		mc.txs++
		mc.calldata += len(r.Tx.Data)
		mc.gasByMethod[r.Tx.Method] += r.GasUsed
		if r.Reverted() {
			mc.reverted++
			continue
		}
		switch r.Tx.Method {
		case contract.MethodEvaluate:
			if m, err := contract.UnmarshalEvaluate(r.Tx.Data); err == nil {
				mc.vpkeProofs += len(m.Wrong)
			}
		case contract.MethodOutrange:
			mc.vpkeProofs++
		}
	}
}
