package main

// The output oracle: after each pass every task is checked against the
// benchmark's own arithmetic over the answer vectors it generated, never
// against the program's view of them.

import (
	"fmt"
	"slices"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
)

// outcome is the part of a task's result two passes over the same inputs
// must agree on besides the harvested answers, which the oracle already
// holds equal to the generated vectors in every pass.
type outcome struct {
	Paid []bool `json:"paid"`
	// Rounds is the number of chain rounds the task took: its settlement
	// round in a market, settlement minus admission round in a stream.
	Rounds int `json:"rounds"`
}

func (o outcome) equal(p outcome) bool {
	return o.Rounds == p.Rounds && slices.Equal(o.Paid, p.Paid)
}

// quality counts the golden standards an answer vector gets right.
func quality(t taskInput, answers []int64) int {
	q := 0
	for k, idx := range t.inst.Golden.Indices {
		if answers[idx] == t.inst.Golden.Answers[k] {
			q++
		}
	}
	return q
}

// checkTask verifies one task's result: it finalized, each verdict equals
// "correct golden answers ≥ Θ", the harvested answers equal the submitted
// vectors, each paid worker holds exactly B/K and each unpaid one nothing,
// the requester got the unpaid shares back and the contract escrow is
// empty. It returns the task's outcome.
func checkTask(in *inputs, ti int, tr *market.TaskResult, led *ledger.Ledger, rounds int) (outcome, error) {
	t := in.tasks[ti]
	o := outcome{Rounds: rounds}
	if tr.ID != t.inst.Task.ID {
		return o, fmt.Errorf("result for task %s where %s was expected", tr.ID, t.inst.Task.ID)
	}
	if !tr.Finalized || tr.Cancelled {
		return o, fmt.Errorf("task %s did not finalize (cancelled=%v)", tr.ID, tr.Cancelled)
	}
	if len(tr.Outcomes) != len(t.answers) {
		return o, fmt.Errorf("task %s reports %d workers, want %d", tr.ID, len(tr.Outcomes), len(t.answers))
	}
	reward := t.inst.Task.Budget / ledger.Amount(t.inst.Task.Workers)
	paid := 0
	for i, wo := range tr.Outcomes {
		want := t.answers[i]
		if addr := workerAddr(in, ti, i); wo.Addr != addr {
			return o, fmt.Errorf("task %s worker %d is %s, want %s", tr.ID, i, wo.Addr, addr)
		}
		pass := quality(t, want) >= t.inst.Task.Threshold
		if wo.Paid != pass || wo.Rejected == pass {
			return o, fmt.Errorf("task %s worker %d: paid=%v rejected=%v, want paid=%v", tr.ID, i, wo.Paid, wo.Rejected, pass)
		}
		got := tr.HarvestedAnswers[wo.Addr]
		if !slices.Equal(got, want) {
			return o, fmt.Errorf("task %s worker %d: harvested answers differ from the submitted vector", tr.ID, i)
		}
		bal := led.Balance(ledger.AccountID(wo.Addr))
		if pass && bal != reward || !pass && bal != 0 {
			return o, fmt.Errorf("task %s worker %d: balance %d, want %d (paid=%v)", tr.ID, i, bal, reward, pass)
		}
		if pass {
			paid++
		}
		o.Paid = append(o.Paid, pass)
	}
	budget := t.inst.Task.Budget
	if want := 2*budget - ledger.Amount(paid)*reward; led.Balance(ledger.AccountID(tr.Requester)) != want {
		return o, fmt.Errorf("task %s requester balance %d, want %d", tr.ID, led.Balance(ledger.AccountID(tr.Requester)), want)
	}
	if e := led.Escrow(ledger.ContractID(tr.ID)); e != 0 {
		return o, fmt.Errorf("task %s leaves %d in escrow", tr.ID, e)
	}
	return o, nil
}

// checkSupply verifies that the balances of every account add up to what
// was minted: twice each task's budget to its requester, nothing to
// workers.
func checkSupply(in *inputs, led *ledger.Ledger, tasks int) error {
	var minted, sum ledger.Amount
	for _, t := range in.tasks[:tasks] {
		minted += 2 * t.inst.Task.Budget
	}
	for _, a := range led.Accounts() {
		sum += led.Balance(a)
	}
	if sum != minted || led.TotalSupply() != minted {
		return fmt.Errorf("balances sum to %d and supply reads %d, want %d minted", sum, led.TotalSupply(), minted)
	}
	return nil
}

// workerAddr names enrollment position i of task ti in the population the
// benchmark builds (see inputs.population).
func workerAddr(in *inputs, ti, i int) chain.Address {
	return market.WorkerAddr(in.enroll(ti)[i], in.tasks[ti].names[i])
}
