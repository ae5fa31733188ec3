package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m3"
	"m3/internal/serve"
)

var serveModels = []string{"logit", "knn"}

// served is one in-process prediction server with m3serve's defaults
// and the benchmark's two models: "logit", whose predict costs about
// a microsecond, so decode and the batch deadline dominate, and
// "knn", whose scan of the reference table dominates.
type served struct {
	reg  *serve.Registry
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startServer(ctx context.Context, in *inputs) (*served, error) {
	reg := serve.NewRegistry()
	if _, err := reg.LoadFile("logit", in.logitPath); err != nil {
		return nil, err
	}
	eng := m3.New(m3.Config{Mode: m3.MemoryMapped, Workers: runtime.NumCPU(), TempDir: in.dir})
	tbl, err := eng.Open(in.refsPath)
	if err != nil {
		return nil, errors.Join(err, eng.Close())
	}
	knn, err := eng.Fit(ctx, m3.KNNClassifier{K: knnK, Classes: classes}, tbl)
	if err != nil {
		return nil, errors.Join(err, eng.Close())
	}
	info := m3.ModelInfo{Kind: "knn", InputCols: tbl.X.Cols(), Classes: classes}
	reg.Set("knn", serve.NewSnapshot(knn, info, "", eng.Close))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &served{reg: reg, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.srv = serve.NewServer(reg, serve.Config{BatchSize: 64, BatchDelay: time.Millisecond, QueueRows: 4096})
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the server in m3serve's order and waits for it.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Drain()
	s.reg.Close()
	return err
}

// newLoad connects the load generator to srv. The returned function
// closes its connections.
func newLoad(in *inputs, srv *served, overHTTP bool, rep *report) (*load, func()) {
	l := &load{in: in, rep: rep, overHTTP: overHTTP, clients: 1}
	l.reset()
	if !overHTTP {
		l.call = handlerCaller(srv.srv.Handler())
		return l, func() {}
	}
	l.clients = runtime.NumCPU()
	call, done := httpCaller(srv.base, l.clients)
	l.call = call
	return l, done
}

// reset forgets the pieces measured so far.
func (l *load) reset() {
	l.latency, l.rate = map[string]*pieces{}, map[string]*pieces{}
	for _, model := range serveModels {
		l.latency[model], l.rate[model] = &pieces{}, &pieces{}
	}
	if !l.overHTTP {
		l.rate = l.latency // one loop gives all three metrics
	}
}

// caller sends one predict request on behalf of a client and returns
// the HTTP status and the predictions.
type caller func(client int, model string, body []byte) (int, []float64, error)

func decodePredictions(r io.Reader) ([]float64, error) {
	var out struct {
		Predictions []float64 `json:"predictions"`
	}
	err := json.NewDecoder(r).Decode(&out)
	return out.Predictions, err
}

// httpCaller gives every client one keep-alive connection.
func httpCaller(base string, clients int) (caller, func()) {
	cs := make([]*http.Client, clients)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	call := func(c int, model string, body []byte) (int, []float64, error) {
		resp, err := cs[c].Post(base+"/models/"+model+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) // keep the connection reusable
			return resp.StatusCode, nil, nil
		}
		preds, err := decodePredictions(resp.Body)
		return resp.StatusCode, preds, err
	}
	return call, func() {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}
}

// handlerCaller calls the server's handler with an in-memory
// recorder: decode, queue wait, predict and encode, but no socket.
func handlerCaller(h http.Handler) caller {
	return func(_ int, model string, body []byte) (int, []float64, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/models/"+model+"/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return rec.Code, nil, nil
		}
		preds, err := decodePredictions(rec.Body)
		return rec.Code, preds, err
	}
}

// load drives requests at a server and checks every answer.
type load struct {
	in      *inputs
	call    caller
	clients int
	rep     *report
	// overHTTP: nproc clients over loopback connections (serve), not
	// one client calling the handler (train_*).
	overHTTP bool
	// latency and rate hold, per model, the pieces the latency metrics
	// and the rate metric come from.
	latency, rate map[string]*pieces

	mu       sync.Mutex
	rejected int       // answers with status 429
	lagMs    []float64 // how late the open-loop generator sent
}

// request sends body number i of bodies (rows [i*per, (i+1)*per) of
// the query pool) and counts the outcome.
func (l *load) request(client int, model string, bodies [][]byte, i, per int) {
	status, preds, err := l.call(client, model, bodies[i])
	ok := err == nil && status == http.StatusOK &&
		samePredictions(preds, l.in.expect[model][i*per:(i+1)*per])
	l.mu.Lock()
	l.rep.op(ok)
	if status == http.StatusTooManyRequests {
		l.rejected++
	}
	l.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "predict %s: %v\n", model, err)
	}
}

// sample is one answered request.
type sample struct {
	doneS float64 // when the answer arrived, seconds into the phase
	ms    float64 // latency
}

// openLoop sends n one-row requests on a fixed schedule of rate per
// second that the clients share, whatever the server's speed. Each
// latency is timed from when the request was due: a stall also delays
// the requests queued behind it. Samples are in schedule order.
func (l *load) openLoop(model string, rate float64, n int) []sample {
	out := make([]sample, n)
	lag := make([]float64, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				lag[i] = time.Since(due).Seconds() * 1e3
				l.request(c, model, l.in.bodies1, i%len(l.in.bodies1), 1)
				out[i] = sample{time.Since(start).Seconds(), time.Since(due).Seconds() * 1e3}
			}
		}()
	}
	wg.Wait()
	l.mu.Lock()
	l.lagMs = append(l.lagMs, lag...)
	l.mu.Unlock()
	return out
}

// closedLoop has every client send its next request as soon as the
// previous answer arrives, for d. Samples are in order of arrival.
func (l *load) closedLoop(model string, bodies [][]byte, per int, d time.Duration) []sample {
	perClient := make([][]sample, l.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Clients walk the pool from evenly spaced offsets.
			for i := c * len(bodies) / l.clients; time.Since(start) < d; i++ {
				sent := time.Now()
				l.request(c, model, bodies, i%len(bodies), per)
				perClient[c] = append(perClient[c], sample{time.Since(start).Seconds(), time.Since(sent).Seconds() * 1e3})
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].doneS < all[j].doneS })
	return all
}

// pieces collects, for one model, what each round's short piece of
// load measured: its p50, its p90 and its answers per second.
type pieces struct {
	p50, p90, perS []float64
	samples        int
}

// add summarizes one piece. Its first tenth is the piece's warm-up:
// the connections, the batcher and the caches have been idle, or busy
// with a fit, since the round before.
func (p *pieces) add(piece []sample) {
	piece = piece[len(piece)/10:]
	if len(piece) < 2 {
		return
	}
	ms := make([]float64, len(piece))
	for i, s := range piece {
		ms[i] = s.ms
	}
	p.p50 = append(p.p50, quantile(ms, 0.50))
	p.p90 = append(p.p90, quantile(ms, 0.90))
	p.perS = append(p.perS, float64(len(piece)-1)/(piece[len(piece)-1].doneS-piece[0].doneS))
	p.samples += len(piece)
}

// closedShare is the part of a model's slice of a serve round that
// goes to the closed loop; the open loop has the rest.
const closedShare = 0.25

// round measures one model for d. Over HTTP (the serve workload) that
// is an open loop of one-row requests for the latencies and then a
// closed loop of closedRows-row requests for the rate. Through the
// handler (how the train_* workloads report the predict metrics) it is
// one closed loop of one-row requests that gives all three, with one
// client: two clients fall in and out of sharing a batch, which made
// the k-NN numbers bimodal in sizing runs.
func (l *load) round(model string, d time.Duration) {
	runtime.GC()
	if !l.overHTTP {
		l.latency[model].add(l.closedLoop(model, l.in.bodies1, 1, d))
		return
	}
	closed := time.Duration(closedShare * float64(d))
	rate := l.in.sz.rate[model]
	l.latency[model].add(l.openLoop(model, rate, max(int(rate*(d-closed).Seconds()), 20)))
	runtime.GC()
	l.rate[model].add(l.closedLoop(model, l.in.bodiesN, closedRows, closed))
}

// report writes the predict metrics: the calm quartile over the
// rounds' pieces, the lower one for latencies and the upper one for
// rates. A stall or a busy stretch of the host lands in a few pieces
// and only ever slows them, so this is steady where a percentile over
// all samples is not: in sizing runs the k-NN p99 of a whole phase
// ranged from 4.6 to 23.8 ms across seeds. The tail is p90 because a
// piece has 100 to 250 samples, too few beyond a p99 to be more than
// its maximum.
func (l *load) report() {
	rows := 1.0
	if l.overHTTP {
		rows = closedRows
	}
	for _, model := range serveModels {
		lat, rate := l.latency[model], l.rate[model]
		fmt.Printf("%s: p50 ms %.2f, p90 ms %.2f, answers per s %.0f\n", model, lat.p50, lat.p90, rate.perS)
		l.rep.set("predict_"+model+"_p50_ms", calm(lat.p50), lat.samples)
		l.rep.set("predict_"+model+"_p90_ms", calm(lat.p90), lat.samples)
		l.rep.set("predict_"+model+"_rows_per_s", quantile(rate.perS, 0.75)*rows, rate.samples)
	}
}
