package vm

// Stream is a per-scanner access handle onto a Memory. Linux keeps
// read-ahead state per struct file, not per device; Stream is the
// simulated counterpart: the sequential-pattern detection state (last
// faulted page, end of the last read request, current read-ahead
// window) is private to the stream, while the page cache, the device
// and the statistics remain shared with every other stream of the
// same Memory.
//
// Concurrent scanners that each own a Stream keep their sequentiality
// — and with it read-ahead batching — even though their faults
// interleave in the shared cache. All mutation happens under the
// Memory's mutex, so Streams are safe for concurrent use, but sharing
// one Stream between scanners merges their access patterns and
// defeats read-ahead, which is why the multicore sweep in
// internal/bench gives each simulated worker its own PagedStream.
type Stream struct {
	mem       *Memory
	lastFault int64 // page of the previous major fault (-2 = none)
	lastEnd   int64 // page just past the previous disk read request
	raWindow  int   // current read-ahead window in pages
}

// NewStream opens an independent access stream with fresh
// sequential-detection state over m's shared page cache. Memory's own
// Touch/TouchWrite run on a built-in default stream, so
// single-scanner code never needs this — and a lone explicit stream
// behaves bit-identically to that default path.
func (m *Memory) NewStream() *Stream {
	return &Stream{mem: m, lastFault: -2, lastEnd: -2, raWindow: m.cfg.MinReadAheadPages}
}

// Touch simulates a read of length bytes at offset on this stream and
// returns the simulated disk stall in seconds incurred by the access.
func (s *Stream) Touch(offset, length int64) float64 {
	return s.mem.access(s, offset, length, false)
}

// TouchWrite simulates a write on this stream (pages become dirty and
// must be written back on eviction) and returns the simulated stall
// in seconds.
func (s *Stream) TouchWrite(offset, length int64) float64 {
	return s.mem.access(s, offset, length, true)
}
