// m3serve is the mmap-backed model-serving daemon: an HTTP/JSON
// prediction server over saved m3 models (any modelio kind, including
// whole pipelines) plus k-NN models whose reference tables stay
// memory-mapped and page on demand — the paper's out-of-core thesis
// applied to inference.
//
//	m3serve -listen 127.0.0.1:8080 \
//	    -model digits=pipe.model \
//	    -knn neighbors=digits.m3:5:10
//
// Requests are micro-batched (-batch rows / -deadline) into single
// PredictMatrix calls: a request to an idle model goes out at once,
// and requests coalesce only behind a model's in-flight batch.
// POST /models/{name}/swap (or SIGHUP, which reloads every
// file-backed model from its current path) hot-swaps a model with
// zero dropped requests. SIGTERM/SIGINT drain in-flight
// batches before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"m3"
	"m3/internal/obs"
	"m3/internal/serve"
)

type modelFlag struct{ name, path string }

type knnFlag struct {
	name, path string
	k, classes int
}

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		batch        = flag.Int("batch", 64, "micro-batch flush threshold in rows")
		deadline     = flag.Duration("deadline", time.Millisecond, "longest a request waits for company behind a busy model; an idle model never waits (0 = one batch per model in flight)")
		queue        = flag.Int("queue", 4096, "max rows waiting in the batch queue before requests get 429 (0 = unbounded)")
		workers      = flag.Int("workers", 0, "engine workers for k-NN scans (0 = NumCPU)")
		knnMode      = flag.String("knn-mode", "mmap", "k-NN reference table backing: mmap|heap")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		traceOut     = flag.String("trace", "", "write a Chrome trace-event JSON of request/batch spans to this path on shutdown")
	)
	var models []modelFlag
	flag.Func("model", "serve a saved model file as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		models = append(models, modelFlag{name, path})
		return nil
	})
	var knns []knnFlag
	flag.Func("knn", "serve k-NN over a dataset file as name=path:k:classes (repeatable)", func(v string) error {
		name, rest, ok := strings.Cut(v, "=")
		parts := strings.Split(rest, ":")
		if !ok || name == "" || len(parts) != 3 {
			return fmt.Errorf("want name=path:k:classes, got %q", v)
		}
		k, err1 := strconv.Atoi(parts[1])
		classes, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || k < 1 || classes < 2 {
			return fmt.Errorf("bad k/classes in %q", v)
		}
		knns = append(knns, knnFlag{name, parts[0], k, classes})
		return nil
	})
	flag.Parse()

	if len(models) == 0 && len(knns) == 0 {
		log.Fatal("m3serve: nothing to serve — pass at least one -model or -knn")
	}

	reg := serve.NewRegistry()
	for _, m := range models {
		entry, err := reg.LoadFile(m.name, m.path)
		if err != nil {
			log.Fatalf("m3serve: %v", err)
		}
		info, _ := entry.Info()
		log.Printf("loaded %s: kind=%s input_cols=%d classes=%d", m.name, info.Kind, info.InputCols, info.Classes)
	}

	mode := m3.MemoryMapped
	if *knnMode == "heap" {
		mode = m3.InMemory
	} else if *knnMode != "mmap" {
		log.Fatalf("m3serve: unknown -knn-mode %q", *knnMode)
	}
	for _, kf := range knns {
		if err := registerKNN(reg, kf, mode, *workers); err != nil {
			log.Fatalf("m3serve: %v", err)
		}
	}

	if *traceOut != "" {
		obs.StartTrace()
	}
	srv := serve.NewServer(reg, serve.Config{BatchSize: *batch, BatchDelay: *deadline, QueueRows: *queue})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("m3serve: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The resolved address (not the flag) so :0 is scriptable.
	log.Printf("listening on %s (batch=%d deadline=%s)", ln.Addr(), *batch, *deadline)

	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	go func() {
		for range sighup {
			if err := reg.ReloadAll(); err != nil {
				log.Printf("reload: %v", err)
			} else {
				log.Printf("reloaded all file-backed models")
			}
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		log.Printf("%s: draining (timeout %s)", sig, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("m3serve: %v", err)
	}

	// Stop accepting, let in-flight handlers finish (draining flushes
	// every queued request at once, behind at most its model's
	// in-flight batches), ctx-cancel whatever exceeds the timeout, then
	// retire models so engine mmaps close.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Drain()
	reg.Close()
	if *traceOut != "" {
		tr := obs.StopTrace()
		if f, err := os.Create(*traceOut); err != nil {
			log.Printf("trace: %v", err)
		} else {
			werr := tr.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				log.Printf("trace: %v", werr)
			} else {
				log.Printf("trace written to %s (%d events)", *traceOut, len(tr.Events()))
			}
		}
	}
	log.Printf("drained")
}

// registerKNN opens the dataset under its own engine and serves
// majority-vote k-NN against the (typically mmap-backed) reference
// matrix. The engine closes only after the last in-flight batch
// releases the snapshot.
func registerKNN(reg *serve.Registry, kf knnFlag, mode m3.Mode, workers int) error {
	eng := m3.New(m3.Config{Mode: mode, Workers: workers})
	tbl, err := eng.Open(kf.path)
	if err != nil {
		eng.Close()
		return fmt.Errorf("opening %s: %w", kf.path, err)
	}
	if tbl.Labels == nil {
		eng.Close()
		return fmt.Errorf("dataset %s has no labels", kf.path)
	}
	model, err := eng.Fit(context.Background(), m3.KNNClassifier{K: kf.k, Classes: kf.classes}, tbl)
	if err != nil {
		eng.Close()
		return fmt.Errorf("fitting k-NN on %s: %w", kf.path, err)
	}
	info := m3.ModelInfo{Kind: "knn", InputCols: tbl.X.Cols(), Classes: kf.classes}
	snap := serve.NewSnapshot(model, info, "", eng.Close)
	snap.Stats = func() map[string]int64 {
		st := tbl.X.Store().Stats()
		es := eng.Stats()
		return map[string]int64{
			"bytes_touched":        st.BytesTouched,
			"resident_bytes":       st.ResidentBytes,
			"scratch_allocs":       es.Allocs,
			"scratch_releases":     es.Releases,
			"scratch_bytes":        es.Bytes,
			"scratch_mapped_bytes": es.MappedBytes,
		}
	}
	reg.Set(kf.name, snap)
	backing := "heap"
	if tbl.Mapped {
		backing = "mmap"
	}
	log.Printf("loaded %s: kind=knn (%s, %d refs) input_cols=%d classes=%d",
		kf.name, backing, tbl.X.Rows(), info.InputCols, kf.classes)
	return nil
}
