package infimnist

import (
	"context"
	"errors"
	"fmt"
	"math"

	"m3/internal/dataset"
	"m3/internal/exec"
)

// splitmix64 advances a 64-bit state and returns a well-mixed value;
// it is the standard seeding generator of the xoshiro family and
// gives image i an independent random stream from (seed, i) alone.
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// rng is a tiny deterministic PRNG seeded per image.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	var v uint64
	r.s, v = splitmix64(r.s)
	return v
}

// uniform returns a float64 in [0, 1).
func (r *rng) uniform() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// symmetric returns a float64 in [-scale, scale).
func (r *rng) symmetric(scale float64) float64 {
	return (2*r.uniform() - 1) * scale
}

// Generator produces deformed digit images. The zero value is valid
// (seed 0, default deformation strengths).
type Generator struct {
	// Seed namespaces the whole stream; two generators with equal
	// seeds produce identical images.
	Seed uint64
	// MaxShift is the translation amplitude in pixels (default 2.5).
	MaxShift float64
	// MaxRotate is the rotation amplitude in radians (default 0.18).
	MaxRotate float64
	// MaxScale is the log-scale amplitude (default 0.12).
	MaxScale float64
	// Noise is the additive pixel noise amplitude (default 0.08).
	Noise float64
}

func (g Generator) withDefaults() Generator {
	if g.MaxShift == 0 {
		g.MaxShift = 2.5
	}
	if g.MaxRotate == 0 {
		g.MaxRotate = 0.18
	}
	if g.MaxScale == 0 {
		g.MaxScale = 0.12
	}
	if g.Noise == 0 {
		g.Noise = 0.08
	}
	return g
}

// Label returns the digit class of image index: classes are balanced
// round-robin, like cycling through the MNIST base set.
func (g Generator) Label(index int64) int {
	return int(index % Classes)
}

// Fill renders image index into dst (length Features) and returns its
// label. Rendering is a pure function of (Seed, index).
func (g Generator) Fill(dst []float64, index int64) int {
	if len(dst) != Features {
		panic(fmt.Sprintf("infimnist: dst length %d, want %d", len(dst), Features))
	}
	gg := g.withDefaults()
	label := gg.Label(index)
	digit := &digits()[label]

	r := rng{s: gg.Seed ^ (uint64(index)+1)*0xd1342543de82ef95}
	dx := r.symmetric(gg.MaxShift) / Side
	dy := r.symmetric(gg.MaxShift) / Side
	angle := r.symmetric(gg.MaxRotate)
	scale := math.Exp(r.symmetric(gg.MaxScale))
	sin, cos := math.Sincos(angle)

	// Inverse affine map: for each output pixel, sample the prototype
	// at the pre-image of the deformation (rotate+scale about the
	// image center, then translate).
	// A pixel's x does not depend on its row nor its y on its column:
	// each is computed once, by the expression every pixel used to
	// evaluate.
	var xs [Side]float64
	for px := range xs {
		xs[px] = (float64(px)+0.5)/Side - 0.5 - dx
	}
	for py := 0; py < Side; py++ {
		y := (float64(py)+0.5)/Side - 0.5 - dy
		for px, x := range xs {
			sx := (cos*x+sin*y)/scale + 0.5
			sy := (-sin*x+cos*y)/scale + 0.5
			v := 0.0
			if sx >= 0 && sx < 1 && sy >= 0 && sy < 1 {
				v = digit.intensityAt(sx, sy)
			}
			if gg.Noise > 0 {
				v += r.symmetric(gg.Noise)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
			}
			dst[py*Side+px] = v
		}
	}
	return label
}

// Image allocates and renders image index.
func (g Generator) Image(index int64) ([]float64, int) {
	dst := make([]float64, Features)
	label := g.Fill(dst, index)
	return dst, label
}

// blockRows is how many images a worker renders at a time: 64 rows are
// 392 KiB, large enough that handing a block over costs nothing beside
// rendering it.
const blockRows = 64

// renderBlocks cuts n images into blocks of blockRows.
func renderBlocks(n int64) []exec.Block {
	blocks := make([]exec.Block, 0, (n+blockRows-1)/blockRows)
	for lo := 0; lo < int(n); lo += blockRows {
		blocks = append(blocks, exec.Block{Lo: lo, Hi: min(lo+blockRows, int(n))})
	}
	return blocks
}

// fillRows renders images first, first+1, … into the rows of x, one
// per label.
func (g Generator) fillRows(x, labels []float64, first int64) {
	for r := range labels {
		labels[r] = float64(g.Fill(x[r*Features:(r+1)*Features], first+int64(r)))
	}
}

// Matrix renders images [first, first+n) into a fresh row-major
// matrix with one image per row, returning the labels alongside.
// Blocks of rows are rendered in parallel; image i is a function of
// (Seed, i) alone, so the result does not depend on how many run.
func (g Generator) Matrix(first, n int64) (x []float64, labels []float64) {
	x = make([]float64, n*Features)
	labels = make([]float64, n)
	// The background context never cancels, so MapReduce cannot fail.
	_, _ = exec.MapReduce(context.Background(), renderBlocks(n), 0,
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, b exec.Block) {
			g.fillRows(x[b.Lo*Features:b.Hi*Features], labels[b.Lo:b.Hi], first+int64(b.Lo))
		},
		func(_, _ struct{}) {})
	return x, labels
}

// WriteDataset streams n images (starting at index 0) into an M3
// dataset file with labels, using constant memory. This is how the
// paper's 10–190 GB files are materialized for the real-mmap runs.
// The file's bytes depend on (Seed, n) alone, not on the core count.
// A failed call leaves no file behind.
func (g Generator) WriteDataset(path string, n int64) error {
	w, err := dataset.Create(path, n, Features, true)
	if err != nil {
		return err
	}
	return g.writeTo(w, n, 0)
}

// rows is one rendered block on its way to the writer.
type rows struct{ x, labels []float64 }

// writeTo renders n images on workers goroutines (<= 0: one per CPU),
// appends them to w in index order and closes it; on any error it
// aborts w instead. exec.MapReduce is the ordered pipeline: a block's
// state is its rendered rows, merging a state is writing it, states
// merge in ascending block order and a written state is rendered into
// again as it is (the no-op reset), so at most 2×workers are ever
// allocated (plus MapReduce's root state, which stays idle): the
// stream w sees is the sequential one's and the memory held does not
// grow with n.
func (g Generator) writeTo(w *dataset.Writer, n int64, workers int) error {
	// A failed write cancels the scan: no further block is rendered.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var werr error
	_, err := exec.MapReduce(ctx, renderBlocks(n), workers,
		func() *rows { return &rows{make([]float64, blockRows*Features), make([]float64, blockRows)} },
		func(*rows) {},
		func(r *rows, b exec.Block) {
			r.x, r.labels = r.x[:b.Len()*Features], r.labels[:b.Len()]
			g.fillRows(r.x, r.labels, int64(b.Lo))
		},
		func(_, r *rows) {
			if werr == nil {
				if werr = w.WriteRows(r.x, r.labels); werr != nil {
					cancel()
				}
			}
		})
	if werr != nil {
		err = werr
	}
	if err != nil {
		return errors.Join(err, w.Abort())
	}
	return w.Close()
}

// BytesPerImage is the on-disk footprint of one image's features
// (784 float64 = 6272 bytes, the figure quoted in the paper).
const BytesPerImage = Features * 8

// ImagesForBytes returns how many images produce approximately the
// given payload size — e.g. 190 GB → ~32M images, matching the paper.
func ImagesForBytes(bytes int64) int64 {
	n := bytes / BytesPerImage
	if n < 1 {
		n = 1
	}
	return n
}
