package serve

import (
	"errors"
	"fmt"
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
// Flush policy: a batch flushes when pending rows reach size or when
// the oldest request has waited delay, whichever comes first — both
// flag-tunable. A flush takes at most size rows (requests are never
// split; the remainder stays queued), so size 1 degenerates to a true
// one-request-per-PredictMatrix server. With delay 0 the dispatcher is
// greedy: it takes whatever queued while the previous batch was
// predicting, so batches form under load without adding idle latency.
// Requests for different models in one flush are split into per-model
// PredictMatrix calls, each answered by exactly one model snapshot.
type Batcher struct {
	size    int
	delay   time.Duration
	maxRows int

	mu     sync.Mutex
	q      []*batchRequest
	qrows  int
	closed bool

	notify chan struct{}
	done   chan struct{}
}

// NewBatcher starts a batcher flushing at size pending rows or after
// delay, whichever comes first. size < 1 means 1 (no batching);
// delay 0 flushes as soon as the dispatcher is free. maxRows bounds
// the queue: a Submit that would push pending rows past it returns
// ErrQueueFull (admission control); maxRows <= 0 leaves the queue
// unbounded.
func NewBatcher(size int, delay time.Duration, maxRows int) *Batcher {
	if size < 1 {
		size = 1
	}
	b := &Batcher{
		size:    size,
		delay:   delay,
		maxRows: maxRows,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit enqueues a request. On nil error the request's out channel
// receives exactly one result; after Drain has begun, ErrDraining;
// when admitting the request would exceed the row cap, ErrQueueFull.
// A single request larger than the whole cap is still admitted into
// an empty queue — rejecting it forever would deadlock the client.
func (b *Batcher) Submit(req *batchRequest) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrDraining
	}
	if b.maxRows > 0 && b.qrows > 0 && b.qrows+req.n > b.maxRows {
		b.mu.Unlock()
		return ErrQueueFull
	}
	req.enq = time.Now()
	b.q = append(b.q, req)
	b.qrows += req.n
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
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
	b.closed = true
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	<-b.done
}

// run is the dispatcher loop: wait for work, optionally linger for a
// fuller batch, take everything pending, dispatch, repeat. On drain
// the queue empties before the loop exits, so no request is lost.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		if b.qrows == 0 {
			closed := b.closed
			b.mu.Unlock()
			if closed {
				return
			}
			<-b.notify
			continue
		}
		for b.qrows < b.size && !b.closed && b.delay > 0 {
			wait := b.delay - time.Since(b.q[0].enq)
			if wait <= 0 {
				break
			}
			b.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-b.notify:
				timer.Stop()
			case <-timer.C:
			}
			b.mu.Lock()
		}
		// Take requests up to the size cap (always at least one; a
		// request is never split). Anything beyond stays queued for the
		// next flush, so size 1 really is one request per PredictMatrix.
		n, taken := 0, 0
		for n < len(b.q) && (n == 0 || taken < b.size) {
			taken += b.q[n].n
			n++
		}
		batch := b.q[:n:n]
		b.q = b.q[n:]
		b.qrows -= taken
		b.mu.Unlock()
		b.dispatch(batch)
	}
}

// dispatch splits a flushed batch by target entry and predicts each
// group concurrently.
func (b *Batcher) dispatch(batch []*batchRequest) {
	type group struct {
		entry *Entry
		reqs  []*batchRequest
		rows  int
	}
	byEntry := map[*Entry]*group{}
	var order []*group
	for _, r := range batch {
		g := byEntry[r.entry]
		if g == nil {
			g = &group{entry: r.entry}
			byEntry[r.entry] = g
			order = append(order, g)
		}
		g.reqs = append(g.reqs, r)
		g.rows += r.n
	}
	var wg sync.WaitGroup
	for _, g := range order {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			dispatchGroup(g.entry, g.reqs)
		}(g)
	}
	wg.Wait()
}

// dispatchGroup answers one entry's share of a batch with a single
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
