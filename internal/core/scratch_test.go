package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"m3/internal/mat"
)

func scratchFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "m3-alloc-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestAllocScratchModeAware: the scratch backend follows the engine's
// policy — heap for InMemory and under-budget Auto, temp-file mapping
// for MemoryMapped and over-budget Auto.
func TestAllocScratchModeAware(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		rows, cols int
		mapped     bool
	}{
		{"in-memory", Config{Mode: InMemory}, 100, 10, false},
		{"mapped", Config{Mode: MemoryMapped}, 100, 10, true},
		{"auto-under-budget", Config{Mode: Auto, MemoryBudget: 1 << 20}, 100, 10, false},
		{"auto-over-budget", Config{Mode: Auto, MemoryBudget: 1024}, 100, 10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.cfg.TempDir = dir
			e := New(tc.cfg)
			defer e.Close()
			s, err := e.AllocScratch(tc.rows, tc.cols)
			if err != nil {
				t.Fatal(err)
			}
			if s.Mapped != tc.mapped {
				t.Errorf("Mapped = %v, want %v", s.Mapped, tc.mapped)
			}
			if r, c := s.X.Dims(); r != tc.rows || c != tc.cols {
				t.Errorf("dims %dx%d", r, c)
			}
			if !s.X.Store().Writable() {
				t.Error("scratch not writable")
			}
			wantFiles := 0
			if tc.mapped {
				wantFiles = 1
			}
			if files := scratchFiles(t, dir); len(files) != wantFiles {
				t.Errorf("%d scratch files, want %d", len(files), wantFiles)
			}
			if err := s.Release(); err != nil {
				t.Fatal(err)
			}
			if files := scratchFiles(t, dir); len(files) != 0 {
				t.Errorf("files remain after Release: %v", files)
			}
			if err := s.Release(); err != nil {
				t.Errorf("second Release: %v", err)
			}
		})
	}
}

// TestAllocScratchEngineCloseAfterRelease: a released scratch is
// untracked, so engine Close neither double-frees nor errors; an
// unreleased one is freed by Close.
func TestAllocScratchEngineCloseAfterRelease(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Mode: MemoryMapped, TempDir: dir})
	released, err := e.AllocScratch(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := e.AllocScratch(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := released.Release(); err != nil {
		t.Fatal(err)
	}
	if files := scratchFiles(t, dir); len(files) != 1 {
		t.Fatalf("want the kept scratch's file, found %v", files)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if files := scratchFiles(t, dir); len(files) != 0 {
		t.Errorf("files remain after engine Close: %v", files)
	}
	if err := kept.Release(); err != nil {
		t.Errorf("Release after engine Close: %v", err)
	}
}

// TestAllocScratchClosedEngine: allocation on a closed engine fails
// without leaving files.
func TestAllocScratchClosedEngine(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Mode: MemoryMapped, TempDir: dir})
	e.Close()
	if _, err := e.AllocScratch(4, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	e2 := New(Config{Mode: InMemory})
	e2.Close()
	if _, err := e2.AllocScratch(4, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("heap path err = %v, want ErrClosed", err)
	}
	if files := scratchFiles(t, dir); len(files) != 0 {
		t.Errorf("closed-engine alloc left files: %v", files)
	}
	if _, err := e.AllocScratch(0, 4); err == nil {
		t.Error("accepted non-positive dimensions")
	}
}

// TestTransformDatasetEngineless: TransformDataset without an engine
// materializes on the heap, carries labels through, and matches a
// sequential computation.
func TestTransformDatasetEngineless(t *testing.T) {
	const n, d = 50, 3
	x := mat.NewDense(n, d)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = float64(i % 2)
		for j := 0; j < d; j++ {
			x.Set(i, j, float64(i*d+j))
		}
	}
	ds := &Dataset{X: x, Labels: labels}
	out, err := TransformDataset(context.Background(), ds, d, 2, func() RowKernel {
		return func(dst, src []float64) []float64 {
			for j := range dst {
				dst[j] = 2 * src[j]
			}
			return dst
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Mapped {
		t.Error("engine-less transform claims a mapping")
	}
	if &out.Labels[0] != &labels[0] {
		t.Error("labels not carried through")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if got := out.X.At(i, j); got != 2*x.At(i, j) {
				t.Fatalf("out[%d,%d] = %v", i, j, got)
			}
		}
	}
	if err := out.Release(); err != nil {
		t.Fatal(err)
	}
	if err := (&Dataset{X: x}).Release(); err != nil {
		t.Errorf("Release on a plain dataset: %v", err)
	}
}

// TestTransformDatasetPreCancelled: a pre-cancelled context stops
// TransformDataset before AllocScratch — regression for the bug where
// the scratch (and its mmap temp file) was created first and then had
// to be deleted. The engine's alloc counter is the authoritative
// witness that no allocation ever happened.
func TestTransformDatasetPreCancelled(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Mode: MemoryMapped, TempDir: dir})
	defer e.Close()
	x := mat.NewDense(20, 3)
	ds := &Dataset{X: x, Engine: e}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := TransformDataset(ctx, ds, 3, 1, func() RowKernel {
		return func(dst, src []float64) []float64 { copy(dst, src); return dst }
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Error("got a dataset from a pre-cancelled transform")
	}
	if st := e.Stats(); st.Allocs != 0 {
		t.Errorf("pre-cancelled transform allocated scratch (%d allocs)", st.Allocs)
	}
	if files := scratchFiles(t, dir); len(files) != 0 {
		t.Errorf("pre-cancelled transform left files: %v", files)
	}
}

// TestScratchReleaseUnlinksAndCounts: releasing a mapped scratch that
// has dirty pages removes its file (unlink first, then an unsynced
// unmap), advances Stats().Releases exactly once however often Release
// is called, and leaves nothing for Engine.Close to do.
func TestScratchReleaseUnlinksAndCounts(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Mode: MemoryMapped, TempDir: dir})
	defer e.Close()
	s, err := e.AllocScratch(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	s.X.Fill(1.5) // dirty every page
	files := scratchFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("scratch files before Release: %v", files)
	}
	before := e.Stats().Releases
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Errorf("scratch file after Release: stat err = %v, want not-exist", err)
	}
	if got := e.Stats().Releases; got != before+1 {
		t.Errorf("Releases = %d after one Release, want %d", got, before+1)
	}
	if err := s.Release(); err != nil {
		t.Errorf("second Release: %v", err)
	}
	if got := e.Stats().Releases; got != before+1 {
		t.Errorf("Releases = %d after a second Release, want %d", got, before+1)
	}
	if err := e.Close(); err != nil {
		t.Errorf("engine Close after Release: %v", err)
	}
}

// TestAllocMappedFailureLeavesNoFile: an allocation the file system
// refuses (a size no file can have) fails without leaving its temp
// file or a counted scratch behind.
func TestAllocMappedFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Mode: MemoryMapped, TempDir: dir})
	defer e.Close()
	if _, err := e.AllocScratch(1<<31, 1<<28); err == nil { // 2^62 bytes
		t.Fatal("allocated a 4 EiB scratch")
	}
	if _, err := e.Alloc(1<<31, 1<<28); err == nil {
		t.Fatal("allocated a 4 EiB matrix")
	}
	if files := scratchFiles(t, dir); len(files) != 0 {
		t.Errorf("failed allocations left files: %v", files)
	}
	if st := e.Stats(); st.Allocs != 0 || st.Releases != 0 {
		t.Errorf("failed allocations counted: %+v", st)
	}
}
