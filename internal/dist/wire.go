// Package dist implements M3's row-sharded training cluster: K
// workers each own one contiguous, merge-group-aligned row range of a
// dataset file and an engine to scan it; a coordinator runs the
// trainers' own drivers (logreg.TrainOn, kmeans.RunPlane, ...) with
// itself as the fit.Source, so every data pass a driver makes becomes
// one broadcast round.
//
// The package knows no algorithm. A data pass is declared once, next
// to its trainer (fit.Declare: a name, and a constructor of the pass's
// exec.Aggregate from a shard and a gob-able argument). Locally
// fit.Reduce folds that aggregate over the matrix; here it hands the
// coordinator a fit.Round, the coordinator broadcasts the single
// "reduce" op — pass name plus encoded argument — each worker looks
// the pass up by name, folds its shard to merge-group states
// (fit.Serve) and replies, and the replies are merged in shard order,
// groups in row order. Adding an algorithm, or a pass to one, changes
// nothing in this package.
//
// Because shard boundaries sit on the canonical merge-group grid
// (exec.GroupRows of the global row count) and every worker scan
// overrides its group height to that global value, that merge
// performs exactly the floating-point operations a local
// single-machine fit performs, in exactly the same order. A K-shard
// fit is therefore bit-identical to a 1-worker local fit — same
// predictions, same saved model bytes — for every shardable
// estimator.
//
// Beside reduce the protocol has the ops that place data (stat, open,
// reset, stage, materialize), fetch one row (row), and the two
// strictly sequential steps of k-means that are not reductions
// (kmeans/sample, kmeans/gather). The transport is deliberately
// small: length-prefixed gob frames over TCP, one connection per
// worker, strictly serial request/response per connection, per-call
// deadlines, and retry-with-backoff on transient dial errors. No
// third-party dependencies.
package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// maxFrameBytes bounds a single wire frame; anything larger is a
// protocol error, not a legitimate payload.
const maxFrameBytes = 1 << 30

// request is the coordinator→worker envelope. Body is the
// gob-encoded op payload, nested so the frame layer never needs to
// know the payload's Go type and byte accounting is exact. For the
// reduce op, Pass names the declared pass and Body is its argument.
type request struct {
	Seq  uint64
	Op   string
	Pass string
	Body []byte
}

// label is the request's name in metrics and spans: the pass for a
// reduce, the op otherwise — so the series keep one value per data
// pass ("logreg/grad", "kmeans/assign") though the wire op is one.
func (r *request) label() string {
	if r.Pass != "" {
		return r.Pass
	}
	return r.Op
}

// response is the worker→coordinator envelope. A non-empty Err
// carries the worker-side error; Body is then empty.
type response struct {
	Seq  uint64
	Err  string
	Body []byte
}

// encodeBody gobs an op payload into envelope bytes.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("dist: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeBody ungobs envelope bytes into an op payload.
func decodeBody(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("dist: decode %T: %w", v, err)
	}
	return nil
}

// writeFrame writes one length-prefixed gob frame. The frame is
// assembled in buf — the connection's, reused from frame to frame, so
// a round of megabyte replies does not regrow one from nothing — and
// goes out in a single Write.
func writeFrame(w io.Writer, buf *bytes.Buffer, v any) (int, error) {
	buf.Reset()
	var hdr [4]byte
	buf.Write(hdr[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return 0, fmt.Errorf("dist: encode frame: %w", err)
	}
	n := buf.Len() - len(hdr)
	if n > maxFrameBytes {
		return 0, fmt.Errorf("dist: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf.Bytes(), uint32(n))
	return w.Write(buf.Bytes())
}

// readFrame reads one length-prefixed gob frame into v, returning the
// bytes consumed. The value is decoded straight off the stream, capped
// at the frame: the length a peer claims bounds what is read, never
// what is allocated — buffers grow as gob receives the bytes — and the
// frame is drained whatever the decoder made of it, so the stream
// stays aligned.
func readFrame(r io.Reader, v any) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return 4, fmt.Errorf("dist: frame of %d bytes exceeds limit", n)
	}
	frame := &io.LimitedReader{R: r, N: int64(n)}
	err := gob.NewDecoder(frame).Decode(v)
	if err != nil {
		err = fmt.Errorf("dist: decode frame: %w", err)
	}
	if _, drainErr := io.Copy(io.Discard, frame); err == nil {
		err = drainErr
	}
	if err == nil && frame.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	return 4 + int(n) - int(frame.N), err
}

// dialRetry dials addr, retrying transient failures (refused
// connections, timeouts — a worker still binding its listener) with
// exponential backoff.
func dialRetry(ctx context.Context, addr string, timeout time.Duration, retries int) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, errors.Join(ctx.Err(), lastErr)
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		d := net.Dialer{Timeout: timeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if !transientDialError(err) {
			break
		}
	}
	return nil, fmt.Errorf("dist: dial %s: %w", addr, lastErr)
}

// transientDialError reports whether a dial failure is worth
// retrying: the worker may simply not be listening yet.
func transientDialError(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// --- Op payloads ------------------------------------------------------
//
// Every type below crosses the wire via gob. A reduce has no payload
// type here: its argument and its reply belong to the declared pass
// (internal/fit), and this package moves both as bytes.

// statReq asks a worker to report a dataset file's shape without
// holding it open.
type statReq struct{ Path string }

type statResp struct {
	Rows, Cols int
	HasLabels  bool
}

// openReq assigns the worker its shard: rows [Lo, Hi) of Path, with
// every scan folding at the coordinator's global group height.
type openReq struct {
	Path      string
	Lo, Hi    int
	GroupRows int
}

type openResp struct {
	Rows, Cols int
	HasLabels  bool
}

// stageReq appends one fitted transformer stage to the worker's fused
// view. Model is the stage's modelio envelope — the bytes Save would
// write — so any stage modelio can persist and that exposes a block
// kernel can be shipped.
type stageReq struct{ Model []byte }

type stageResp struct{ OutCols int }

// sampleReq resumes the sequential k-means++ prefix-sum walk on this
// shard with the running accumulator from the shards before it.
type sampleReq struct {
	Acc    float64
	Target float64
}

type sampleResp struct {
	Found bool
	// Idx is shard-local; the coordinator adds the shard offset.
	Idx int
	Acc float64
}

// rowReq fetches one transformed row (shard-local index) — centroid
// initialization and empty-cluster repair.
type rowReq struct{ I int }

type rowResp struct {
	Row   []float64
	Stall float64
}

// gatherResp answers kmeans/gather with the shard's final assignments.
type gatherResp struct{ Assignments []int }
