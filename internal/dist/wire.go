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
// small: frames over TCP, each a gob header (sequence number, op, error)
// and a raw body, one connection per worker, strictly serial
// request/response per connection, per-call deadlines, and
// retry-with-backoff on transient dial errors. A reduce reply's body is
// the pass's own flat encoding of its group states (internal/fit), so
// the floats of a round cross the wire as their bytes; every other body
// is a gob-encoded payload. No third-party dependencies.
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

// maxFrameBytes bounds each part of a wire frame, header and body;
// anything larger is a protocol error, not a legitimate payload.
const maxFrameBytes = 1 << 30

// request is the coordinator→worker frame header. For the reduce op,
// Pass names the declared pass. body is the frame's raw body — the
// op's gob-encoded payload, for a reduce the pass's argument — and is
// not a gob field: the frame layer sends it after the header as it is.
type request struct {
	Seq  uint64
	Op   string
	Pass string
	body []byte
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

// response is the worker→coordinator frame header. A non-empty Err
// carries the worker-side error, and the frame's body is then empty;
// otherwise the body is the reply.
type response struct {
	Seq uint64
	Err string
}

// encodeBody gobs an op payload into body bytes.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("dist: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeBody ungobs body bytes into an op payload.
func decodeBody(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("dist: decode %T: %w", v, err)
	}
	return nil
}

// A frame is
//
//	u32 header length, u32 body length (big-endian), gob header, raw body
//
// The header is a request or a response; the body is bytes the frame
// layer never interprets.

// writeFrame writes one frame. The lengths and the header are assembled
// in buf — the connection's, reused from frame to frame — and go out
// with the body in one vectored write, so the body is never copied.
func writeFrame(w io.Writer, buf *bytes.Buffer, hdr any, body []byte) (int, error) {
	buf.Reset()
	var lens [8]byte
	buf.Write(lens[:])
	if err := gob.NewEncoder(buf).Encode(hdr); err != nil {
		return 0, fmt.Errorf("dist: encode frame: %w", err)
	}
	n := buf.Len() - len(lens)
	if n > maxFrameBytes || len(body) > maxFrameBytes {
		return 0, fmt.Errorf("dist: frame of %d + %d bytes exceeds limit", n, len(body))
	}
	binary.BigEndian.PutUint32(buf.Bytes(), uint32(n))
	binary.BigEndian.PutUint32(buf.Bytes()[4:], uint32(len(body)))
	frame := net.Buffers{buf.Bytes(), body}
	sent, err := frame.WriteTo(w)
	return int(sent), err
}

// readFrame reads one frame: the header decoded into hdr, the body into
// body (reset first; its bytes are the caller's until the next frame it
// is read into). It returns the bytes consumed. The header is decoded
// straight off the stream, capped at its length, and the body read as
// it arrives: the lengths a peer claims bound what is read, never what
// is allocated. Whatever the decoder made of the header, the frame is
// consumed whole, so the stream stays aligned. A response that carries
// an error and a body is malformed.
func readFrame(r io.Reader, hdr any, body *bytes.Buffer) (int, error) {
	var lens [8]byte
	if n, err := io.ReadFull(r, lens[:]); err != nil {
		return n, err
	}
	hn, bn := binary.BigEndian.Uint32(lens[:4]), binary.BigEndian.Uint32(lens[4:])
	if hn > maxFrameBytes || bn > maxFrameBytes {
		return len(lens), fmt.Errorf("dist: frame of %d + %d bytes exceeds limit", hn, bn)
	}
	head := &io.LimitedReader{R: r, N: int64(hn)}
	err := gob.NewDecoder(head).Decode(hdr)
	if err != nil {
		err = fmt.Errorf("dist: decode frame: %w", err)
	}
	if _, drainErr := io.Copy(io.Discard, head); err == nil {
		err = drainErr
	}
	n := len(lens) + int(hn) - int(head.N)
	if head.N > 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	body.Reset()
	got, bodyErr := body.ReadFrom(io.LimitReader(r, int64(bn)))
	n += int(got)
	if err == nil {
		err = bodyErr
	}
	if err == nil && got < int64(bn) {
		err = io.ErrUnexpectedEOF
	}
	if resp, ok := hdr.(*response); ok && err == nil && resp.Err != "" && bn > 0 {
		err = fmt.Errorf("dist: an error reply with a %d-byte body", bn)
	}
	return n, err
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
