package core

import (
	"io"
	"sync/atomic"
)

// This file implements streaming ingest through the pipeline seam: a
// BatchSource that interleaves a caller-supplied update feed with training
// batches, so a model trains on a live, changing graph. The epoch machinery
// underneath keeps it sound: applied updates advance server epochs, the
// producer pins each batch to the snapshot current at its schedule time,
// and every completed batch is snapshot-consistent no matter how the feed
// and the training loop race.

// UpdateFeed supplies graph mutations to interleave with training. A
// cluster implementation routes queued ServeUpdate batches (edge
// insertions/removals and attribute rewrites) to the owning shards.
type UpdateFeed interface {
	// Apply applies up to max pending update batches to the backing store,
	// returning how many were applied (0 when the feed is idle). It runs on
	// the training goroutine between batches and must not block waiting for
	// new updates to arrive.
	Apply(max int) (int, error)
}

// StreamConfig tunes a StreamSource.
type StreamConfig struct {
	// MaxPerTick bounds the update batches applied per tick (default 1).
	MaxPerTick int
}

// StreamSource is the live-training BatchSource: it drains an UpdateFeed
// before each batch pulled from the inner source. With a prefetching inner
// Pipeline the feed's updates and the producer's pinned batches overlap
// freely — batches already scheduled keep reading their pinned epochs,
// batches scheduled after an update pin the new snapshot.
type StreamSource struct {
	inner BatchSource
	feed  UpdateFeed
	cfg   StreamConfig

	applied atomic.Int64
}

// NewStreamSource wraps inner so that pending updates from feed are applied
// between training batches.
func NewStreamSource(inner BatchSource, feed UpdateFeed, cfg StreamConfig) *StreamSource {
	if cfg.MaxPerTick < 1 {
		cfg.MaxPerTick = 1
	}
	return &StreamSource{inner: inner, feed: feed, cfg: cfg}
}

// Next implements BatchSource: drain the feed's tick, then hand out the
// next training batch.
func (s *StreamSource) Next() (*MiniBatch, error) {
	k, err := s.feed.Apply(s.cfg.MaxPerTick)
	if err != nil {
		return nil, err
	}
	s.applied.Add(int64(k))
	return s.inner.Next()
}

// Recycle implements BatchSource.
func (s *StreamSource) Recycle(mb *MiniBatch) { s.inner.Recycle(mb) }

// Applied reports how many update batches the source has applied so far.
// Safe to call concurrently with training.
func (s *StreamSource) Applied() int64 { return s.applied.Load() }

// Close closes the inner source when it has a lifecycle (a Pipeline).
func (s *StreamSource) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
