package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// declared is the part of BENCHMARK.json the benchmark reads back.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(raw, &d)
}

// runAA measures every workload twice on this build, set A and then
// set B, and prints by how much each end-to-end metric got worse from
// A to B beside the bound BENCHMARK.json allows a later change. Two
// runs of the same code must agree within the bounds, or the bounds
// would reject changes for noise.
func runAA(cfg config, boundsPath string) int {
	decl, err := readDeclared(boundsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = map[string]*report{}
		for _, w := range workloads {
			c := cfg
			c.workload, c.trace = w, false
			rep, err := run(context.Background(), c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			sets[i][w] = rep
		}
	}
	status := 0
	fmt.Printf("%-12s %-26s %12s %12s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, w := range workloads {
		a, b := sets[0][w], sets[1][w]
		if a.failed+b.failed > 0 {
			fmt.Printf("%-12s %d of %d operations failed\n", w, a.failed+b.failed, a.attempted+b.attempted)
			status = 1
		}
		for _, m := range decl.EndToEnd {
			worse := (b.value[m.Name] - a.value[m.Name]) / a.value[m.Name]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  over the bound"
				status = 1
			}
			fmt.Printf("%-12s %-26s %12.6g %12.6g %+7.1f%% %5.0f%%%s\n",
				w, m.Name, a.value[m.Name], b.value[m.Name], worse*100, m.Bound*100, verdict)
		}
	}
	return status
}
