package nvme

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// The transport layer promotes the command encoding from a pure
// pack/unpack exercise to the boundary a host-facing front end actually
// crosses: a bounded submission/completion queue pair per device. What
// travels on the submission queue is the wire form — the LBA plus the
// three reserved DWords of Fig. 10, nothing else — so anything the host
// side knows that does not survive Encode/Decode is gone by the time the
// device side parses, exactly as with real firmware.

// ErrQueueFull reports a submission that would overflow the queue's
// depth: the serving layer's back-pressure signal.
var ErrQueueFull = errors.New("nvme: submission queue full")

// QueuePairStats counts transport activity.
type QueuePairStats struct {
	// Submitted counts entries accepted onto the submission queue,
	// Drained those consumed by the device side, Rejected submissions
	// bounced for lack of queue slots.
	Submitted int64
	Drained   int64
	Rejected  int64
	// MaxDepth is the high-water mark of entries queued at once.
	MaxDepth int
}

// QueuePair is a bounded submission queue between a host front end and
// one device. Safe for concurrent use; Exchange keeps one command
// stream's entries contiguous so interleaved submitters cannot shear a
// formula apart.
type QueuePair struct {
	mu    sync.Mutex
	depth int            // immutable after NewQueuePair
	stats QueuePairStats // guarded by mu
}

// NewQueuePair builds a queue pair with the given submission depth.
// Depths below 1 get the NVMe-typical default of 1024.
func NewQueuePair(depth int) *QueuePair {
	if depth < 1 {
		depth = 1024
	}
	return &QueuePair{depth: depth}
}

// Stats returns a snapshot of transport counters.
func (q *QueuePair) Stats() QueuePairStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Exchange pushes one command stream across the boundary atomically:
// encode onto the submission queue, device-side drain, decode. The
// returned commands are what the device firmware sees — everything that
// did not survive the wire encoding is gone. A stream longer than the
// queue's depth fails with ErrQueueFull. Concurrent exchanges never
// interleave their streams.
func (q *QueuePair) Exchange(cmds []Command) ([]Command, error) {
	return q.AppendExchange(nil, cmds)
}

// AppendExchange is Exchange appending what the device sees to dst, so a
// caller that keeps dst exchanges without allocating. A rejected stream
// returns dst unchanged with the error.
func (q *QueuePair) AppendExchange(dst, cmds []Command) ([]Command, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(cmds) > q.depth {
		q.stats.Rejected += int64(len(cmds))
		return dst, fmt.Errorf("%w: %d entries for %d free slots",
			ErrQueueFull, len(cmds), q.depth)
	}
	dst = slices.Grow(dst, len(cmds))
	for i := range cmds {
		dst = append(dst, Decode(cmds[i].LBA, cmds[i].Encode()))
	}
	q.stats.Submitted += int64(len(cmds))
	q.stats.Drained += int64(len(cmds))
	if len(cmds) > q.stats.MaxDepth {
		q.stats.MaxDepth = len(cmds)
	}
	return dst, nil
}
