package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"m3/internal/mat"
	"m3/internal/obs"
)

// ErrDraining is returned for requests submitted after shutdown
// began.
var ErrDraining = errors.New("serve: server is draining")

// ErrQueueFull is returned when admitting a request would push the
// queue past its row cap — the server sheds load (HTTP 429) instead
// of letting latency grow without bound.
var ErrQueueFull = errors.New("serve: request queue is full")

// result is one request's reply.
type result struct {
	preds []float64
	err   error
}

// batchRequest is one enqueued prediction unit: n rows for one model
// entry. The reply channel is buffered, so dispatch never blocks on a
// slow reader; every submitted request receives exactly one result.
type batchRequest struct {
	entry *Entry
	rows  []float64 // n×cols, row-major
	n     int
	cols  int
	out   chan result
	enq   time.Time
	// obsID is the request's async-span id when tracing is enabled
	// (zero otherwise); batch spans list the ids of the requests they
	// carried, linking the two levels in the trace viewer.
	obsID int64
}

// Batcher accumulates prediction requests and flushes them as single
// PredictMatrix calls — the paper's row-blocked scan economics applied
// to serving: one pass over a model's reference data (or one fused
// pipeline view) answers a whole batch instead of one query.
//
// Each model has its own queue and dispatches its own batches
// asynchronously, so a busy or stuck model never holds up another
// model's requests. The flush policy is Nagle's rule (RFC 896) applied
// to batches: send at once when nothing is outstanding, coalesce only
// while something is.
//
//   - Idle model: a queued request for a model with no batch in flight
//     is flushed at once, whatever delay is. An idle model never waits.
//   - Busy model: requests for a model with a batch in flight
//     accumulate, and flush at once when that batch completes.
//   - delay > 0 is the longest a request waits for company behind a
//     busy model: once the oldest queued request has waited delay, or
//     size rows are queued, the queue is flushed beside the in-flight
//     batch. A model has at most GOMAXPROCS batches in flight (a
//     constant, read when the batcher starts); past that, its queue
//     waits for a completion.
//   - delay == 0 flushes as soon as the model's dispatcher is free: at
//     most one batch per model is in flight.
//
// A flush takes at most size rows (requests are never split; the
// remainder stays queued), so size 1 degenerates to a true
// one-request-per-PredictMatrix server. Admission is global: maxRows
// caps the rows queued across all models.
type Batcher struct {
	size    int
	delay   time.Duration
	maxRows int
	// maxInFlight caps each model's concurrent batches: GOMAXPROCS
	// with delay > 0, 1 with delay 0.
	maxInFlight int

	mu       sync.Mutex
	queues   map[*Entry]*modelQueue
	qrows    int // rows queued across all models
	inflight int // batches in flight across all models
	closed   bool
	done     chan struct{} // closed once drained
}

// modelQueue is one model's pending requests and its in-flight
// batches. Entries are per name and never removed, so the batcher
// holds at most one queue per registered name.
type modelQueue struct {
	entry    *Entry
	q        []*batchRequest
	rows     int
	inflight int
	timer    *time.Timer // fires when q[0] has waited delay
}

// NewBatcher returns a batcher that flushes an idle model's requests at
// once and a busy model's after delay or at size pending rows,
// whichever comes first. size < 1 means 1 (no batching); delay 0
// allows one batch per model in flight. maxRows bounds the queue: a
// Submit that would push pending rows past it returns ErrQueueFull
// (admission control); maxRows <= 0 leaves the queue unbounded.
func NewBatcher(size int, delay time.Duration, maxRows int) *Batcher {
	if size < 1 {
		size = 1
	}
	maxInFlight := 1
	if delay > 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	return &Batcher{
		size:        size,
		delay:       delay,
		maxRows:     maxRows,
		maxInFlight: maxInFlight,
		queues:      map[*Entry]*modelQueue{},
		done:        make(chan struct{}),
	}
}

// Submit enqueues a request. On nil error the request's out channel
// receives exactly one result; after Drain has begun, ErrDraining;
// when admitting the request would exceed the row cap, ErrQueueFull.
// A single request larger than the whole cap is still admitted into
// an empty queue — rejecting it forever would deadlock the client.
func (b *Batcher) Submit(req *batchRequest) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrDraining
	}
	if b.maxRows > 0 && b.qrows > 0 && b.qrows+req.n > b.maxRows {
		return ErrQueueFull
	}
	req.enq = time.Now()
	m := b.queues[req.entry]
	if m == nil {
		m = &modelQueue{entry: req.entry}
		b.queues[req.entry] = m
	}
	m.q = append(m.q, req)
	m.rows += req.n
	b.qrows += req.n
	b.pumpLocked(m)
	return nil
}

// QueueRows reports the rows currently waiting in the queue — the
// admission-control gauge exported at /metrics.
func (b *Batcher) QueueRows() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.qrows
}

// Drain stops intake and blocks until every already-submitted request
// has been answered. Safe to call more than once.
func (b *Batcher) Drain() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		// Nothing waits for company any more.
		for _, m := range b.queues {
			b.pumpLocked(m)
		}
		b.finishLocked()
	}
	b.mu.Unlock()
	<-b.done
}

// pumpLocked flushes m's queue for as long as the policy allows: at
// once while m is idle, and beside its in-flight batches (up to
// maxInFlight) once size rows are queued, the oldest request has
// waited delay, or the batcher is draining. Otherwise it arms m's
// timer for the oldest request's deadline. Called with b.mu held.
func (b *Batcher) pumpLocked(m *modelQueue) {
	for len(m.q) > 0 && m.inflight < b.maxInFlight {
		if m.inflight > 0 && m.rows < b.size && !b.closed {
			if wait := b.delay - time.Since(m.q[0].enq); wait > 0 {
				if m.timer == nil {
					m.timer = time.AfterFunc(wait, func() {
						b.mu.Lock()
						b.pumpLocked(m)
						b.mu.Unlock()
					})
				} else {
					m.timer.Reset(wait)
				}
				return
			}
		}
		// Take requests up to the size cap (always at least one; a
		// request is never split). Anything beyond stays queued for the
		// next flush, so size 1 really is one request per PredictMatrix.
		n, taken := 0, 0
		for n < len(m.q) && (n == 0 || taken < b.size) {
			taken += m.q[n].n
			n++
		}
		batch := m.q[:n:n]
		m.q = m.q[n:]
		m.rows -= taken
		b.qrows -= taken
		m.inflight++
		b.inflight++
		go b.flush(m, batch)
	}
}

// flush answers one batch, then lets m's queue move on.
func (b *Batcher) flush(m *modelQueue, batch []*batchRequest) {
	dispatchGroup(m.entry, batch)
	b.mu.Lock()
	m.inflight--
	b.inflight--
	b.pumpLocked(m)
	b.finishLocked()
	b.mu.Unlock()
}

// finishLocked closes done once a draining batcher has answered every
// request: nothing queued, nothing in flight. Called with b.mu held.
func (b *Batcher) finishLocked() {
	if !b.closed || b.qrows > 0 || b.inflight > 0 {
		return
	}
	select {
	case <-b.done:
	default:
		close(b.done)
	}
}

// dispatchGroup answers one model's batch with a single
// PredictMatrix call on a single model snapshot — a hot-swap landing
// mid-batch never blends two model generations into one flush, and
// the old generation's resources stay alive until Release.
func dispatchGroup(e *Entry, reqs []*batchRequest) {
	if tr := obs.Current(); tr != nil {
		rows := 0
		ids := make([]int64, 0, len(reqs))
		for _, r := range reqs {
			rows += r.n
			if r.obsID != 0 {
				ids = append(ids, r.obsID)
			}
		}
		args := map[string]any{"requests": len(reqs), "rows": rows}
		if len(ids) > 0 {
			args["req_ids"] = ids
		}
		name := "batch " + e.Name()
		id := tr.NextID()
		tr.AsyncBegin("serve", name, id, args)
		defer tr.AsyncEnd("serve", name, id, nil)
	}
	snap, err := e.Acquire()
	if err != nil {
		for _, r := range reqs {
			r.out <- result{err: err}
		}
		return
	}
	defer snap.Release()

	want := snap.Info.InputCols
	if want == 0 {
		want = reqs[0].cols
	}
	good := reqs[:0:0]
	rows := 0
	for _, r := range reqs {
		if r.cols != want {
			e.metrics.requestErrors(1)
			r.out <- result{err: fmt.Errorf("serve: model %s expects %d columns, request has %d", e.Name(), want, r.cols)}
			continue
		}
		good = append(good, r)
		rows += r.n
	}
	if len(good) == 0 {
		return
	}

	// A lone request's rows already are the batch matrix.
	flat := good[0].rows
	if len(good) > 1 {
		flat = make([]float64, 0, rows*want)
		for _, r := range good {
			flat = append(flat, r.rows...)
		}
	}
	x := mat.NewDenseFrom(flat, rows, want)
	preds, err := snap.Model.PredictMatrix(x)
	e.metrics.observeBatch(len(good), rows, err)
	if err != nil {
		for _, r := range good {
			r.out <- result{err: err}
		}
		return
	}
	off := 0
	for _, r := range good {
		r.out <- result{preds: preds[off : off+r.n : off+r.n]}
		off += r.n
	}
}
