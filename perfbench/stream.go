package main

// The stream workload: the same tasks from distinct requesters submitted to
// a manual-mode service on a seeded Poisson schedule, driven from one
// goroutine by SubmitTask/Step/Poll. It is an open loop on the CPU clock
// (clock.go): a task is submitted once the clock has passed its due time,
// whatever the service is doing, and its latency runs from its due time to
// the Poll that reports it settled, so the time a long round makes later
// submissions wait is counted. While no task is in flight the clock jumps
// to the next arrival instead of sleeping.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dragoon/internal/chain"
	"dragoon/internal/service"
)

// streamCounts are what a traced pass gathers besides spans; a market pass
// fills only mc.
type streamCounts struct {
	steps, activeSum int
	roundsSum        int
	admitWait        []float64 // ms
	retained         int
	mc               marketCounts
}

// streamPass runs the workload's tasks through a fresh service on the
// order-th arrival schedule, with the requester keys of pass, recording
// spans into tr when it is not nil.
func streamPass(ctx context.Context, in *inputs, pass, order int, tr *tracer) (*passStats, *streamCounts) {
	ps := &passStats{}
	sc := &streamCounts{mc: marketCounts{gasByMethod: map[string]uint64{}}}
	n := len(in.tasks)
	due := in.schedule(order)
	g := in.w.group()
	if tr != nil {
		g = tr.group
	}
	specs, err := in.specs(g, pass)
	if err != nil {
		return failAll(in, ps, err), sc
	}
	svc, err := service.New(service.Config{
		Group: g, Population: in.population(), Seed: in.seed, Manual: true, Options: in.options(),
	})
	if err != nil {
		return failAll(in, ps, err), sc
	}
	defer svc.Close()
	ch := svc.Chain()

	// clock is the pass's CPU clock: CPU time since the start plus the idle
	// time skipped.
	var c0, skipped time.Duration
	clock := func() time.Duration { return cpuNow() - c0 + skipped }

	// call runs one service call, inside a service-layer span when
	// tracing, and returns the CPU time it took.
	root := -1
	call := func(name string, round int, f func()) time.Duration {
		c := cpuNow()
		if tr == nil {
			f()
		} else {
			_, done := tr.enter(layerService, name, root, round)
			f()
			done()
		}
		return cpuNow() - c
	}

	statuses := make(map[string]service.TaskStatus, n)
	index := make(map[string]int, n)
	for ti := 0; ti < n; ti++ {
		index[specs[ti].Instance.Task.ID] = ti
	}
	var waiting []int // tasks submitted since the last Step
	lastRound := -1

	a0 := heapAllocated()
	w0 := time.Now()
	if tr != nil {
		root = tr.begin("stream", layerOther, -1, "", 0)
	}
	c0 = cpuNow()
	next := 0
	for len(statuses) < n {
		for next < n && due[next] <= clock() {
			spec := specs[next]
			var err error
			ps.busy += call("service.SubmitTask", ch.Round(), func() { err = svc.SubmitTask(spec) })
			ps.late = append(ps.late, ms(clock()-due[next]))
			waiting = append(waiting, next)
			if err != nil {
				return failAll(in, ps, err), sc
			}
			next++
		}
		if next == len(statuses) {
			// Nothing in flight: skip to the next arrival.
			if d := due[next] - clock(); d > 0 {
				skipped += d
			}
			continue
		}
		now := clock()
		for _, ti := range waiting {
			sc.admitWait = append(sc.admitWait, ms(now-due[ti]))
		}
		waiting = waiting[:0]
		ps.busy += call("service.Step", ch.Round(), func() { err = svc.Step(ctx) })
		if err != nil {
			return failAll(in, ps, err), sc
		}
		var settled []service.TaskStatus
		ps.busy += call("service.Poll", ch.Round(), func() { settled = svc.Poll() })
		now = clock()
		for _, st := range settled {
			ti, ok := index[st.ID]
			if !ok {
				return failAll(in, ps, fmt.Errorf("unknown task %q settled", st.ID)), sc
			}
			statuses[st.ID] = st
			ps.latencies = append(ps.latencies, ms(now-due[ti]))
		}
		if tr != nil {
			var stats service.Stats
			call("service.Stats", ch.Round(), func() { stats = svc.Stats() })
			sc.steps++
			sc.activeSum += stats.Active
			_, done := tr.enter(layerChain, "chain.Receipts", root, ch.Round())
			lastRound = countNewReceipts(ch, lastRound, &sc.mc)
			done()
		}
	}
	ps.wall = time.Since(w0)
	if tr != nil {
		tr.end(root)
	}
	ps.allocs = heapAllocated() - a0
	ps.heapLive = liveHeap()

	led := svc.Ledger()
	ps.outcomes = make([]outcome, n)
	for ti := 0; ti < n; ti++ {
		st := statuses[specs[ti].Instance.Task.ID]
		if st.Result == nil {
			ps.failed++
			ps.errs = append(ps.errs, fmt.Errorf("task %s: expired=%v err=%v", st.ID, st.Expired, st.Err))
			continue
		}
		ps.gas += st.Result.GasTotal
		sc.roundsSum += st.SettledRound - st.AdmittedRound
		o, err := checkTask(in, ti, st.Result, led, st.SettledRound-st.AdmittedRound)
		if err != nil {
			ps.failed++
			ps.errs = append(ps.errs, err)
			continue
		}
		ps.outcomes[ti] = o
		ps.questions += in.tasks[ti].inst.Task.N()
	}
	for _, t := range in.tasks {
		sc.mc.cts += len(t.answers) * t.inst.Task.N()
	}
	if err := checkSupply(in, led, n); err != nil {
		ps.failed, ps.questions = n, 0
		ps.errs = append(ps.errs, err)
	}
	sc.retained = len(ch.Receipts())
	runtime.KeepAlive(svc)
	return ps, sc
}

// countNewReceipts folds the receipts mined after round last into mc and
// returns the newest round seen.
func countNewReceipts(ch *chain.Chain, last int, mc *marketCounts) int {
	rcpts := ch.Receipts()
	i := len(rcpts)
	for i > 0 && rcpts[i-1].Round > last {
		i--
	}
	countReceipts(rcpts[i:], mc)
	if len(rcpts) > 0 && rcpts[len(rcpts)-1].Round > last {
		last = rcpts[len(rcpts)-1].Round
	}
	return last
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
