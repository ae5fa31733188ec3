// Command infimnist-gen materializes Infimnist-style datasets as M3
// files. The paper's 190 GB file corresponds to -images 32000000;
// laptop-scale experiments use far fewer.
//
// Usage:
//
//	infimnist-gen -out digits.m3 -images 100000 [-seed 1] [-bytes 0]
//
// When -bytes is set, the image count is derived from the target
// payload size (6272 bytes per image, as in the paper).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"m3/internal/infimnist"
)

func main() {
	out := flag.String("out", "digits.m3", "output dataset path")
	images := flag.Int64("images", 10000, "number of images to generate")
	bytes := flag.Int64("bytes", 0, "target payload size in bytes (overrides -images)")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	n := *images
	if *bytes > 0 {
		n = infimnist.ImagesForBytes(*bytes)
	}
	if n <= 0 {
		fmt.Fprintln(os.Stderr, "infimnist-gen: image count must be positive")
		os.Exit(2)
	}

	fmt.Printf("generating %d images (%d features, %.2f GB payload) -> %s\n",
		n, infimnist.Features, float64(n*infimnist.BytesPerImage)/1e9, *out)
	start := time.Now()
	g := infimnist.Generator{Seed: *seed}
	if err := g.WriteDataset(*out, n); err != nil {
		fmt.Fprintf(os.Stderr, "infimnist-gen: %v\n", err)
		os.Exit(1)
	}
	took := time.Since(start)
	fmt.Printf("done in %v (%.0f MB/s)\n", took.Round(time.Millisecond),
		float64(n*infimnist.BytesPerImage)/1e6/took.Seconds())
}
