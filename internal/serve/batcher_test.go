package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3"
	"m3/internal/mat"
)

// constModel is a fake m3.Model: every prediction is val, calls and
// rows are counted, and the most concurrent PredictMatrix calls are
// tracked. An optional gate blocks every PredictMatrix call, and an
// optional hold blocks only the first, so tests can hold a batch in
// flight.
type constModel struct {
	val    float64
	calls  atomic.Int64
	rows   atomic.Int64
	gate   chan struct{}
	hold   chan struct{}
	held   atomic.Bool
	busy   time.Duration // each call sleeps this long
	active atomic.Int64
	peak   atomic.Int64 // most concurrent calls seen
	fail   error
}

func (m *constModel) Predict(row []float64) float64 { return m.val }

func (m *constModel) PredictMatrix(x *mat.Dense) ([]float64, error) {
	m.calls.Add(1)
	m.rows.Add(int64(x.Rows()))
	now := m.active.Add(1)
	defer m.active.Add(-1)
	for p := m.peak.Load(); now > p && !m.peak.CompareAndSwap(p, now); p = m.peak.Load() {
	}
	if m.gate != nil {
		<-m.gate
	}
	if m.hold != nil && m.held.CompareAndSwap(false, true) {
		<-m.hold
	}
	time.Sleep(m.busy)
	if m.fail != nil {
		return nil, m.fail
	}
	out := make([]float64, x.Rows())
	for i := range out {
		out[i] = m.val
	}
	return out, nil
}

func (m *constModel) Save(string) error { return errors.New("constModel: no serial form") }

var _ m3.Model = (*constModel)(nil)

// newEntry registers a fake model and returns its entry.
func newEntry(t *testing.T, reg *Registry, name string, model m3.Model, cols int) *Entry {
	t.Helper()
	return reg.Set(name, NewSnapshot(model, m3.ModelInfo{Kind: "fake", InputCols: cols}, "", nil))
}

// newReq builds an n-row request for e.
func newReq(e *Entry, n, cols int) *batchRequest {
	return &batchRequest{
		entry: e,
		rows:  make([]float64, n*cols),
		n:     n,
		cols:  cols,
		out:   make(chan result, 1),
	}
}

// waitFor polls cond until it holds or 10s pass.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// holdInFlight puts a one-row batch for e in flight and blocks it in
// model's first PredictMatrix call, so e's next requests queue behind
// a busy model. model's call and row counters restart after the held
// call. The returned release (idempotent) lets the held batch finish
// and checks its reply; defer it after deferring b.Drain.
func holdInFlight(t *testing.T, b *Batcher, e *Entry, model *constModel, cols int) (release func()) {
	t.Helper()
	model.hold = make(chan struct{})
	req := newReq(e, 1, cols)
	if err := b.Submit(req); err != nil {
		t.Fatal(err)
	}
	held := false
	defer func() {
		if !held { // waitFor failed: let the caller's Drain return
			close(model.hold)
		}
	}()
	waitFor(t, func() bool { return model.calls.Load() == 1 })
	held = true
	model.calls.Store(0)
	model.rows.Store(0)
	var once sync.Once
	return func() {
		once.Do(func() {
			close(model.hold)
			if res := mustReply(t, req); res.err != nil {
				t.Fatal(res.err)
			}
		})
	}
}

// roomBeside lets b flush a second batch beside a model's in-flight
// one even where GOMAXPROCS is 1 and the in-flight cap would be 1.
func roomBeside(b *Batcher) { b.maxInFlight = max(b.maxInFlight, 2) }

// mustReply reads a request's single reply with a timeout.
func mustReply(t *testing.T, req *batchRequest) result {
	t.Helper()
	select {
	case res := <-req.out:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("no reply within 10s")
		return result{}
	}
}

func TestBatcherFlushOnSize(t *testing.T) {
	reg := NewRegistry()
	model := &constModel{val: 7}
	e := newEntry(t, reg, "m", model, 3)
	// Deadline far away and the model busy: only the size threshold can
	// flush, beside the held batch.
	b := NewBatcher(4, time.Hour, 0)
	roomBeside(b)
	defer b.Drain()
	release := holdInFlight(t, b, e, model, 3)
	defer release()

	reqs := make([]*batchRequest, 4)
	for i := range reqs {
		reqs[i] = newReq(e, 1, 3)
		if err := b.Submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range reqs {
		res := mustReply(t, req)
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.preds) != 1 || res.preds[0] != 7 {
			t.Fatalf("preds = %v", res.preds)
		}
	}
	if c, r := model.calls.Load(), model.rows.Load(); c != 1 || r != 4 {
		t.Errorf("model saw %d calls / %d rows, want one 4-row batch", c, r)
	}
}

func TestBatcherFlushOnDeadline(t *testing.T) {
	reg := NewRegistry()
	model := &constModel{val: 1}
	e := newEntry(t, reg, "m", model, 2)
	const delay = 30 * time.Millisecond
	// Size threshold unreachable and the model busy: only the deadline
	// can flush, beside the held batch.
	b := NewBatcher(1<<20, delay, 0)
	roomBeside(b)
	defer b.Drain()
	release := holdInFlight(t, b, e, model, 2)
	defer release()

	start := time.Now()
	r1, r2 := newReq(e, 1, 2), newReq(e, 2, 2)
	if err := b.Submit(r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(r2); err != nil {
		t.Fatal(err)
	}
	mustReply(t, r1)
	mustReply(t, r2)
	elapsed := time.Since(start)
	if elapsed < delay-time.Millisecond {
		t.Errorf("flushed after %s, before the %s deadline", elapsed, delay)
	}
	if c, r := model.calls.Load(), model.rows.Load(); c != 1 || r != 3 {
		t.Errorf("model saw %d calls / %d rows, want one 3-row batch", c, r)
	}
}

// TestBatcherSingleRequestLatencyBound: a lone request to an idle
// model is flushed at once, however long delay is — an idle model
// never waits for company.
func TestBatcherSingleRequestLatencyBound(t *testing.T) {
	reg := NewRegistry()
	e := newEntry(t, reg, "m", &constModel{val: 2}, 1)
	b := NewBatcher(1<<20, time.Hour, 0)
	defer b.Drain()

	start := time.Now()
	req := newReq(e, 1, 1)
	if err := b.Submit(req); err != nil {
		t.Fatal(err)
	}
	if res := mustReply(t, req); res.err != nil {
		t.Fatal(res.err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("lone request to an idle model waited %s", elapsed)
	}
}

func TestBatcherGreedyFlushWithZeroDelay(t *testing.T) {
	reg := NewRegistry()
	e := newEntry(t, reg, "m", &constModel{val: 3}, 1)
	// delay 0: a lone request must not wait for the size threshold.
	b := NewBatcher(1<<20, 0, 0)
	defer b.Drain()

	req := newReq(e, 1, 1)
	start := time.Now()
	if err := b.Submit(req); err != nil {
		t.Fatal(err)
	}
	mustReply(t, req)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("greedy dispatch took %s", elapsed)
	}
}

func TestBatcherSplitsMixedModelTargets(t *testing.T) {
	reg := NewRegistry()
	ma, mb := &constModel{val: 1}, &constModel{val: 2}
	ea := newEntry(t, reg, "a", ma, 2)
	eb := newEntry(t, reg, "b", mb, 2)
	b := NewBatcher(4, time.Hour, 0)
	defer b.Drain()
	releaseA := holdInFlight(t, b, ea, ma, 2)
	defer releaseA()
	releaseB := holdInFlight(t, b, eb, mb, 2)
	defer releaseB()

	// Interleave targets while both models are busy; each model's share
	// waits for its own completion.
	reqs := []*batchRequest{newReq(ea, 1, 2), newReq(eb, 1, 2), newReq(ea, 1, 2), newReq(eb, 1, 2)}
	for _, r := range reqs {
		if err := b.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	releaseA()
	releaseB()
	for i, r := range reqs {
		res := mustReply(t, r)
		if res.err != nil {
			t.Fatal(res.err)
		}
		want := float64(1 + i%2)
		if res.preds[0] != want {
			t.Errorf("request %d got %v, want %v", i, res.preds[0], want)
		}
	}
	// Two per-model PredictMatrix calls of 2 rows each.
	if c, r := ma.calls.Load(), ma.rows.Load(); c != 1 || r != 2 {
		t.Errorf("model a saw %d calls / %d rows", c, r)
	}
	if c, r := mb.calls.Load(), mb.rows.Load(); c != 1 || r != 2 {
		t.Errorf("model b saw %d calls / %d rows", c, r)
	}
}

func TestBatcherRejectsMismatchedWidth(t *testing.T) {
	reg := NewRegistry()
	model := &constModel{val: 1}
	e := newEntry(t, reg, "m", model, 3)
	b := NewBatcher(2, time.Hour, 0)
	defer b.Drain()
	release := holdInFlight(t, b, e, model, 3)
	defer release()

	// Both requests queue behind the held batch and go out together.
	good, bad := newReq(e, 1, 3), newReq(e, 1, 2)
	if err := b.Submit(good); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(bad); err != nil {
		t.Fatal(err)
	}
	release()
	if res := mustReply(t, good); res.err != nil || res.preds[0] != 1 {
		t.Errorf("good request: %+v", res)
	}
	if res := mustReply(t, bad); res.err == nil {
		t.Error("2-wide request against a 3-wide model was answered")
	}
	if r := model.rows.Load(); r != 1 {
		t.Errorf("model saw %d rows, want only the valid one", r)
	}
}

func TestBatcherPredictErrorFansOut(t *testing.T) {
	reg := NewRegistry()
	boom := errors.New("boom")
	e := newEntry(t, reg, "m", &constModel{fail: boom}, 1)
	b := NewBatcher(2, time.Hour, 0)
	defer b.Drain()

	r1, r2 := newReq(e, 1, 1), newReq(e, 1, 1)
	if err := b.Submit(r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(r2); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*batchRequest{r1, r2} {
		if res := mustReply(t, r); !errors.Is(res.err, boom) {
			t.Errorf("err = %v, want boom", res.err)
		}
	}
	if s := e.Metrics().Snapshot(); s.Errors != 2 {
		t.Errorf("errors = %d, want 2", s.Errors)
	}
}

// TestBatcherModelsDoNotBlockEachOther: a model stuck in PredictMatrix
// holds up only its own queue.
func TestBatcherModelsDoNotBlockEachOther(t *testing.T) {
	reg := NewRegistry()
	ma, mb := &constModel{val: 1}, &constModel{val: 2}
	ea := newEntry(t, reg, "a", ma, 1)
	eb := newEntry(t, reg, "b", mb, 1)
	b := NewBatcher(1<<20, time.Hour, 0)
	defer b.Drain()
	release := holdInFlight(t, b, ea, ma, 1)
	defer release()

	queued := newReq(ea, 1, 1)
	if err := b.Submit(queued); err != nil {
		t.Fatal(err)
	}
	req := newReq(eb, 1, 1)
	if err := b.Submit(req); err != nil {
		t.Fatal(err)
	}
	if res := mustReply(t, req); res.err != nil || res.preds[0] != 2 {
		t.Fatalf("model b's reply: %+v", res)
	}
	select {
	case res := <-queued.out:
		t.Fatalf("request queued behind the held batch answered early: %+v", res)
	default:
	}
	release()
	if res := mustReply(t, queued); res.err != nil || res.preds[0] != 1 {
		t.Fatalf("model a's queued reply: %+v", res)
	}
}

// TestBatcherOneBatchInFlightWithZeroDelay: with delay 0, a model has
// at most one batch in flight however hard it is hammered; what queues
// behind it goes out when it completes.
func TestBatcherOneBatchInFlightWithZeroDelay(t *testing.T) {
	reg := NewRegistry()
	model := &constModel{val: 3, busy: 100 * time.Microsecond}
	e := newEntry(t, reg, "m", model, 1)
	b := NewBatcher(4, 0, 0)
	defer b.Drain()

	const submitters, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := newReq(e, 1, 1)
				if err := b.Submit(req); err != nil {
					t.Error(err)
					return
				}
				if res := <-req.out; res.err != nil || res.preds[0] != 3 {
					t.Errorf("reply: %+v", res)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := model.peak.Load(); p != 1 {
		t.Errorf("%d PredictMatrix calls ran at once, want 1", p)
	}
	if r := model.rows.Load(); r != submitters*each {
		t.Errorf("model saw %d rows, want %d", r, submitters*each)
	}
}

// TestBatcherInFlightBound: requests that wait delay behind a stuck
// model go out beside it, but never more than GOMAXPROCS batches at
// once; the rest queue, and every request is answered once the model
// unblocks.
func TestBatcherInFlightBound(t *testing.T) {
	reg := NewRegistry()
	gate := make(chan struct{})
	model := &constModel{val: 1, gate: gate}
	e := newEntry(t, reg, "m", model, 1)
	const delay = time.Millisecond
	b := NewBatcher(1<<20, delay, 0)
	defer b.Drain()
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	defer open()
	procs := runtime.GOMAXPROCS(0)

	// Fill every slot, one request at a time: each waits delay behind
	// the stuck batches and goes out beside them.
	var reqs []*batchRequest
	for i := 1; i <= procs; i++ {
		req := newReq(e, 1, 1)
		if err := b.Submit(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
		waitFor(t, func() bool { return model.calls.Load() == int64(i) })
	}
	// Past the cap, requests queue however long they wait.
	for i := 0; i < 3; i++ {
		req := newReq(e, 1, 1)
		if err := b.Submit(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	time.Sleep(10 * delay)
	if c := model.calls.Load(); c != int64(procs) {
		t.Errorf("%d batches in flight, want the cap of %d", c, procs)
	}
	if q := b.QueueRows(); q != 3 {
		t.Errorf("QueueRows = %d, want 3", q)
	}

	open()
	for _, r := range reqs {
		if res := mustReply(t, r); res.err != nil {
			t.Fatal(res.err)
		}
	}
	if p := model.peak.Load(); p > int64(procs) {
		t.Errorf("%d batches ran at once, want at most GOMAXPROCS = %d", p, procs)
	}
	if r := model.rows.Load(); r != int64(len(reqs)) {
		t.Errorf("model saw %d rows, want %d", r, len(reqs))
	}
}

// TestBatcherQueueFull saturates a capped queue while the dispatcher
// is stuck in a slow model: submits up to the cap are admitted, the
// one past it is shed with ErrQueueFull, and every admitted request
// is still answered once the model unblocks.
func TestBatcherQueueFull(t *testing.T) {
	reg := NewRegistry()
	gate := make(chan struct{})
	model := &constModel{val: 1, gate: gate}
	e := newEntry(t, reg, "m", model, 1)
	b := NewBatcher(1, 0, 3)
	defer b.Drain()

	// The dispatcher takes the first request immediately and blocks in
	// PredictMatrix, leaving the queue empty behind it.
	inflight := newReq(e, 1, 1)
	if err := b.Submit(inflight); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return model.calls.Load() == 1 })

	// Fill the queue to its 3-row cap.
	queued := []*batchRequest{newReq(e, 2, 1), newReq(e, 1, 1)}
	for _, r := range queued {
		if err := b.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.QueueRows(); got != 3 {
		t.Fatalf("QueueRows = %d, want 3", got)
	}

	// One more row must be shed, not queued, and a shed request must
	// never receive a reply.
	over := newReq(e, 1, 1)
	if err := b.Submit(over); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over cap: %v, want ErrQueueFull", err)
	}
	select {
	case res := <-over.out:
		t.Fatalf("shed request got a reply: %+v", res)
	default:
	}

	close(gate)
	for _, r := range append([]*batchRequest{inflight}, queued...) {
		if res := mustReply(t, r); res.err != nil {
			t.Fatal(res.err)
		}
	}
	if got := b.QueueRows(); got != 0 {
		t.Errorf("QueueRows after drain-down = %d, want 0", got)
	}
}

// TestBatcherOversizedRequestAdmitted: a single request larger than
// the whole cap still enters an empty queue — rejecting it forever
// would strand the client, and bounding the largest request is the
// HTTP body limit's job, not the queue's.
func TestBatcherOversizedRequestAdmitted(t *testing.T) {
	reg := NewRegistry()
	e := newEntry(t, reg, "m", &constModel{val: 2}, 1)
	b := NewBatcher(1, 0, 2)
	defer b.Drain()

	req := newReq(e, 5, 1)
	if err := b.Submit(req); err != nil {
		t.Fatalf("oversized request into empty queue: %v", err)
	}
	if res := mustReply(t, req); res.err != nil || len(res.preds) != 5 {
		t.Fatalf("oversized request reply: %+v", res)
	}
}

// TestBatcherDrainNoRequestLostOrAnsweredTwice hammers Submit from
// many goroutines while Drain lands mid-stream: every accepted
// request gets exactly one reply, every rejected one gets ErrDraining,
// and nothing is dropped.
func TestBatcherDrainNoRequestLostOrAnsweredTwice(t *testing.T) {
	reg := NewRegistry()
	model := &constModel{val: 5}
	e := newEntry(t, reg, "m", model, 1)
	b := NewBatcher(8, 200*time.Microsecond, 0)

	const workers = 8
	var accepted, answered, rejected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := newReq(e, 1, 1)
				if err := b.Submit(req); err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("unexpected submit error: %v", err)
					}
					rejected.Add(1)
					// Rejected requests must never be answered.
					select {
					case res := <-req.out:
						t.Errorf("rejected request got a reply: %+v", res)
					default:
					}
					return
				}
				accepted.Add(1)
				res := mustReply(t, req)
				if res.err != nil {
					t.Errorf("accepted request failed: %v", res.err)
				}
				answered.Add(1)
				// Exactly one reply: the channel must now be empty.
				select {
				case res := <-req.out:
					t.Errorf("request answered twice: %+v", res)
				default:
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	b.Drain()
	close(stop)
	wg.Wait()

	if accepted.Load() != answered.Load() {
		t.Errorf("accepted %d requests but answered %d", accepted.Load(), answered.Load())
	}
	if accepted.Load() == 0 {
		t.Error("no requests accepted — hammer never ran")
	}
	// Submits after Drain returned must be rejected.
	if err := b.Submit(newReq(e, 1, 1)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit: %v", err)
	}
	if model.rows.Load() != accepted.Load() {
		t.Errorf("model saw %d rows, want %d", model.rows.Load(), accepted.Load())
	}
}
