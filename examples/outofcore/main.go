// This example regenerates the shape of Figure 1a at your desk: it
// sweeps dataset sizes across the RAM boundary of the paper's 32 GB
// machine (simulated substrate, internal/vm) and prints the
// two-slope linear curve with the knee at RAM size, then fits the
// runtime model and predicts an unseen size.
//
// Run:
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"os"

	"m3/internal/bench"
	"m3/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	machine := bench.PaperPC()
	fmt.Printf("machine: RAM %.0f GB, disk %.2f GB/s sequential\n\n",
		float64(machine.RAMBytes)/1e9, machine.Disk.BandwidthBytes/1e9)

	res, err := bench.Fig1a(bench.Fig1aConfig{
		Machine:  machine,
		Workload: bench.Workload{ActualRows: 256, Seed: 9},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.RenderFig1a(os.Stdout, res, machine.RAMBytes); err != nil {
		log.Fatal(err)
	}

	// The knee is discoverable from runtimes alone.
	pts := make([]perfmodel.Point, len(res.Points))
	for i, p := range res.Points {
		pts[i] = perfmodel.Point{SizeBytes: float64(p.SizeBytes), Seconds: p.Seconds}
	}
	auto, err := perfmodel.FitAutoKnee(pts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nknee recovered from measurements alone: %.0f GB (machine RAM: %.0f GB)\n",
		auto.KneeBytes/1e9, float64(machine.RAMBytes)/1e9)
	fmt.Printf("predicted runtime at 250 GB: %.0f s\n", res.Model.Predict(250e9))
}
