// This example trains logistic regression on a memory-mapped dataset
// end to end — generate, map, train, evaluate on held-out data — and
// reports real OS-level paging statistics, mirroring the workload of
// the paper's Figure 1a at laptop scale.
//
// Run:
//
//	go run ./examples/logreg [-images 5000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"m3"
	"m3/internal/obs"
)

func main() {
	log.SetFlags(0)
	images := flag.Int64("images", 5000, "training images to generate")
	flag.Parse()

	dir, err := os.MkdirTemp("", "m3-logreg")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	trainPath := filepath.Join(dir, "train.m3")
	testPath := filepath.Join(dir, "test.m3")

	fmt.Printf("generating %d training + 1000 test images...\n", *images)
	if err := m3.GenerateInfimnist(trainPath, *images, 1); err != nil {
		log.Fatal(err)
	}
	if err := m3.GenerateInfimnist(testPath, 1000, 2); err != nil {
		log.Fatal(err)
	}

	// Memory-map both datasets; opening costs no reads.
	eng := m3.New(m3.Config{Mode: m3.MemoryMapped})
	defer eng.Close()
	trainTbl, err := eng.Open(trainPath)
	if err != nil {
		log.Fatal(err)
	}
	testTbl, err := eng.Open(testPath)
	if err != nil {
		log.Fatal(err)
	}

	binary := func(labels []float64) []float64 {
		y := make([]float64, len(labels))
		for i, v := range labels {
			if v == 0 {
				y[i] = 1
			}
		}
		return y
	}
	yTrain := binary(trainTbl.Labels)
	yTest := binary(testTbl.Labels)

	before, procOK := obs.ReadProc()
	start := time.Now()
	passes := 0
	// Estimator API: the engine threads its worker pool and storage
	// settings into the fit; the context could cancel it mid-scan.
	est := m3.LogisticRegression{
		Binarize: true, Positive: 0, // digit zero vs rest
		Options: m3.LogisticOptions{
			MaxIterations: 10, // the paper's protocol
			GradTol:       1e-12,
			FitOptions: m3.FitOptions{
				Callback: func(info m3.IterInfo) bool {
					passes = info.Evaluations
					fmt.Printf("  iter %2d: loss %.6f  |grad| %.2e\n", info.Iter, info.Value, info.GradNorm)
					return true
				},
			},
		},
	}
	fitted, err := eng.Fit(context.Background(), est, trainTbl)
	if err != nil {
		log.Fatal(err)
	}
	model := fitted.(*m3.FittedLogistic)
	elapsed := time.Since(start)

	fmt.Printf("\ntrained in %v (%d data passes over %.1f MB)\n",
		elapsed.Round(time.Millisecond), passes, float64(trainTbl.X.SizeBytes())/1e6)
	fmt.Printf("train accuracy: %.4f\n", model.Accuracy(trainTbl.X, yTrain))
	fmt.Printf("test accuracy:  %.4f\n", model.Accuracy(testTbl.X, yTest))

	if procOK == nil {
		if after, err := obs.ReadProc(); err == nil {
			d := after.Sub(before)
			fmt.Printf("paging: %d major faults, %.1f MB read from storage\n",
				d.MajorFaults, float64(d.ReadBytes)/1e6)
		}
	}
}
