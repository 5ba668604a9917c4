package main

// Seeded inputs. Everything a run feeds the program — task instances, every
// worker's answer vector, the requester keys and the stream's arrival
// schedule — is derived here from the workload seed; the program only ever
// sees the generated values. Answer vectors are fixed per (seed, task,
// worker) and served through worker.Model answer functions, so a pass can
// be repeated (untraced, then traced) and must produce the same outcomes.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/protocol"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// workload is one benchmark configuration (see README.md for why each
// exists).
type workload struct {
	name      string
	group     func() group.Group
	tasks     int     // tasks per market pass, or per stream pass
	n         int     // questions per task
	golden    int     // golden-standard questions per task
	threshold int     // Θ
	accurate  int     // accurate annotators per task
	bots      int     // uniformly random bots per task
	batch     int     // opts.Options.BatchVerify (+1 on, -1 off)
	rate      float64 // stream only: offered tasks per second of the CPU clock
}

const (
	// parallelism is every workload's Options.Parallelism: the reference
	// host's nproc.
	parallelism = 2
	// accuracy is the per-question accuracy of every accurate annotator.
	accuracy = 0.95
	// budget is every task's B (B/K = 1000 per paid worker).
	budget ledger.Amount = 4000
)

// workloads are the benchmark's configurations. The ImageNet ones mirror
// task.NewImageNet: 106 binary questions, 6 golden standards, K = 4
// workers, Θ = 4.
var workloads = map[string]workload{
	"imagenet_market": {
		name: "imagenet_market", group: group.BN254G1, tasks: 16,
		n: 106, golden: 6, threshold: 4, accurate: 3, bots: 1,
		batch: -1,
	},
	"imagenet_stream": {
		name: "imagenet_stream", group: group.BN254G1, tasks: 25, rate: 1.5,
		n: 106, golden: 6, threshold: 4, accurate: 3, bots: 1,
		batch: -1,
	},
	"reject_market_testgroup": {
		name: "reject_market_testgroup", group: group.TestSchnorr, tasks: 64,
		n: 106, golden: 32, threshold: 24, accurate: 1, bots: 3,
		batch: 1,
	},
}

// taskInput is one task with the answer vector of each enrolled worker, in
// enrollment order.
type taskInput struct {
	inst    *task.Instance
	names   []string
	answers [][]int64
}

// inputs is everything one run needs besides the per-pass requester keys.
type inputs struct {
	w     workload
	seed  int64
	tasks []taskInput
}

// generate derives a run's inputs from the workload seed.
func generate(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, seed: seed, tasks: make([]taskInput, w.tasks)}
	for ti := range in.tasks {
		inst, err := task.Generate(task.GenerateParams{
			ID: fmt.Sprintf("%s-%d", w.name, ti), N: w.n, RangeSize: 2,
			NumGolden: w.golden, Workers: w.accurate + w.bots,
			Threshold: w.threshold, Budget: budget,
			QuestionFn: func(i int) task.Question {
				return task.Question{
					Text:    fmt.Sprintf("Does image #%04d contain the target attribute?", i),
					Options: []string{"no", "yes"},
				}
			},
		}, rng)
		if err != nil {
			return nil, err
		}
		t := taskInput{inst: inst}
		for a := 0; a < w.accurate; a++ {
			t.names = append(t.names, fmt.Sprintf("t%d-annotator%d", ti, a))
			t.answers = append(t.answers, accurateAnswers(inst, accuracy, rng))
		}
		for b := 0; b < w.bots; b++ {
			t.names = append(t.names, fmt.Sprintf("t%d-bot%d", ti, b))
			t.answers = append(t.answers, botAnswers(inst, rng))
		}
		in.tasks[ti] = t
	}
	return in, nil
}

// accurateAnswers answers each question correctly with probability acc and
// otherwise picks a uniformly random wrong option.
func accurateAnswers(inst *task.Instance, acc float64, rng *rand.Rand) []int64 {
	r := inst.Task.RangeSize
	out := make([]int64, inst.Task.N())
	for i, truth := range inst.GroundTruth {
		out[i] = truth
		if rng.Float64() >= acc {
			wrong := int64(rng.Intn(int(r - 1)))
			if wrong >= truth {
				wrong++
			}
			out[i] = wrong
		}
	}
	return out
}

// botAnswers answers uniformly at random.
func botAnswers(inst *task.Instance, rng *rand.Rand) []int64 {
	out := make([]int64, inst.Task.N())
	for i := range out {
		out[i] = int64(rng.Intn(int(inst.Task.RangeSize)))
	}
	return out
}

// schedule returns the k-th arrival schedule of a stream pass: the offsets
// of the workload's tasks from the start of the pass, with exponentially
// distributed gaps at the workload's rate. The n gaps are the midpoint
// quantiles of the exponential distribution, in an order drawn from the
// seed and k. Every pass thus offers exactly n tasks over the same span
// with the same gap sizes, and passes differ only in how bursty the order
// is, which keeps a run's latency sample from hanging on one draw.
func (in *inputs) schedule(k int) []time.Duration {
	n, rate := len(in.tasks), in.w.rate
	var b [8]byte
	if _, err := io.ReadFull(drbg.New(in.seed, fmt.Sprintf("schedule/%d", k)), b[:]); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(b[:]))))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / rate
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	due := make([]time.Duration, n)
	var t float64
	for i, g := range gaps {
		t += g
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// population returns the worker models of a pass: task i enrolls members
// [i·K, (i+1)·K), each serving its fixed answer vector.
func (in *inputs) population() []worker.Model {
	var pop []worker.Model
	for _, t := range in.tasks {
		for wi, vec := range t.answers {
			pop = append(pop, worker.Model{
				Name:     t.names[wi],
				Strategy: protocol.StrategyHonest,
				Answers: func([]task.Question, int64) []int64 {
					out := make([]int64, len(vec))
					copy(out, vec)
					return out
				},
			})
		}
	}
	return pop
}

// enroll returns the population indices task ti enrolls.
func (in *inputs) enroll(ti int) []int {
	k := in.w.accurate + in.w.bots
	out := make([]int, k)
	for i := range out {
		out[i] = ti*k + i
	}
	return out
}

// specs returns the task specs of pass p over group g. Each pass draws
// requester keys new to the process, so it pays the per-key fixed-base
// table build a fresh deployment pays.
func (in *inputs) specs(g group.Group, pass int) ([]market.TaskSpec, error) {
	specs := make([]market.TaskSpec, len(in.tasks))
	for ti, t := range in.tasks {
		key, err := elgamal.KeyGen(g, drbg.New(in.seed, fmt.Sprintf("requester-key/%d/%d", pass, ti)))
		if err != nil {
			return nil, err
		}
		specs[ti] = market.TaskSpec{Instance: t.inst, Enroll: in.enroll(ti), Key: key}
	}
	return specs, nil
}

// warmUp fills the process-wide tables every pass shares — the generator
// table behind ScalarBaseMul and the short-log decryption table — by one
// encryption and decryption under a throwaway key.
func warmUp(g group.Group) error {
	sk, err := elgamal.KeyGen(g, drbg.New(0, "warm-up"))
	if err != nil {
		return err
	}
	ct, _, err := sk.PublicKey.Encrypt(1, drbg.New(0, "warm-up/enc"))
	if err != nil {
		return err
	}
	if p := sk.DecryptWith(elgamal.SharedShortLogTable(g, 2), ct); !p.InRange || p.Value != 1 {
		return fmt.Errorf("warm-up decryption returned %+v", p)
	}
	return nil
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
