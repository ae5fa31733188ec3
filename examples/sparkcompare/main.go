// This example regenerates Figure 1b: the same logistic-regression
// and k-means workloads on one M3 PC versus simulated 4- and
// 8-instance Spark clusters, with the paper's reported numbers
// alongside for comparison. The distributed runs execute the real
// algorithm math (their models match M3's exactly); timing comes
// from the calibrated cluster cost model (internal/cluster).
//
// Run:
//
//	go run ./examples/sparkcompare [-size 190]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"m3/internal/bench"
)

func main() {
	log.SetFlags(0)
	sizeGB := flag.Float64("size", 190, "nominal dataset size in GB")
	flag.Parse()

	w := bench.Workload{
		NominalBytes: int64(*sizeGB * 1e9),
		ActualRows:   512,
		Seed:         3,
	}
	fmt.Printf("workload: %.0f GB Infimnist, logreg 10 L-BFGS iters, k-means 10 iters k=5\n\n", *sizeGB)

	rows, err := bench.Fig1b(bench.PaperPC(), w)
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.RenderFig1b(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\npaper findings to check against the table:")
	fmt.Println("  - logreg: M3 ~30% faster than 8x Spark; 4x Spark ~4.2x M3")
	fmt.Println("  - kmeans: 8x Spark comparable (1.37x); 4x Spark > 2x M3")
}
