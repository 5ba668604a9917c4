package main

// A seconds-long run of every workload at a tiny size, untraced and traced,
// with the oracle and the traced-outcome checks on: an API change that
// breaks the benchmark fails `go test` here.

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestTinyWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			w.tasks = 2
			if w.rate > 0 {
				w.tasks, w.rate = 4, 20
			}
			in, took, err := setup(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				rep, err := run(context.Background(), in, runConfig{
					seconds: 1, trace: traced, setup: took, log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, rep.Correct, rep.Attempted, rep.Failed)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %q", traced, m.Name, got, m.Unit)
					}
				}
				if len(rep.Metrics) > len(want) {
					t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json declares %d", traced, len(rep.Metrics), len(want))
				}
			}
		})
	}
}
