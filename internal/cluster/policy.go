package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sampling"
)

// This file is the fault-tolerance policy layer of the transport seam:
// RetryTransport wraps any Caller with per-call deadlines, bounded
// exponential backoff with deterministic jitter, a retry budget, and a
// per-shard three-state breaker (closed/open/half-open). Re-issuing a read
// is safe because every sampling draw is vertex- or seed-pure (the reply to a
// retried request is bit-identical to the lost one at the same pinned
// epoch), and Update/Lease/Release are made retry-safe by idempotency
// tokens the server deduplicates. See the package comment for the full
// failure model.

// unreachableMarker names a delivery failure in error text: ErrUnreachable
// and ShardDownError carry it. Classification never reads it; IsTransient
// works on wrapped errors only, and every delivery failure is wrapped.
const unreachableMarker = "shard unreachable"

// ErrUnreachable marks a transport-level delivery failure: the request (or
// its reply) never made it to/from a live server. Calls failing with it are
// safe to retry; the request may or may not have executed, which is why
// non-idempotent RPCs carry dedup tokens.
var ErrUnreachable = errors.New("cluster: " + unreachableMarker)

// errBreakerOpen is the fast-fail result while a shard's breaker is open.
var errBreakerOpen = fmt.Errorf("cluster: breaker open: %w", ErrUnreachable)

// ShardDownError is returned by RetryTransport once a call's retry budget is
// exhausted (or immediately, while the shard's breaker is open). It carries
// the shard that failed, and it reports Transient() so pipeline layers above (which cannot import this
// package's helpers) can classify it through an interface assertion.
type ShardDownError struct {
	Part int
	Err  error
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("cluster: shard %d down (%s): %v", e.Part, unreachableMarker, e.Err)
}

// Unwrap exposes the final attempt's error.
func (e *ShardDownError) Unwrap() error { return e.Err }

// Transient reports that the failure is a delivery failure, not an
// application error: waiting and retrying is legal.
func (e *ShardDownError) Transient() bool { return true }

// IsShardDown reports whether err is a retry-budget-exhausted (or
// breaker-fast-failed) shard failure.
func IsShardDown(err error) bool {
	var sde *ShardDownError
	return errors.As(err, &sde)
}

// IsTransient reports whether err is a transport-level delivery failure —
// retrying the call is legal and may succeed. Every such failure wraps
// ErrUnreachable or reports Transient(). Application errors from a live
// server (unknown vertex, evicted epoch) are NOT transient: the server
// answered, so retrying verbatim would return the same error.
func IsTransient(err error) bool {
	var te interface{ Transient() bool }
	return errors.Is(err, ErrUnreachable) || errors.As(err, &te) && te.Transient()
}

// CallPolicy tunes RetryTransport: per-attempt deadline, retry budget,
// backoff shape, and breaker thresholds.
type CallPolicy struct {
	// Timeout bounds each attempt through its context; 0 disables the
	// deadline.
	Timeout time.Duration
	// Attempts is the total attempts per call (minimum 1).
	Attempts int
	// Backoff is the base delay before the second attempt; successive
	// attempts double it (with jitter) up to MaxBackoff. 0 retries
	// immediately.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// FailThreshold is how many consecutive transport failures open a
	// shard's breaker (0 disables the breaker).
	FailThreshold int
	// Cooldown is how long an open breaker waits before letting one
	// half-open probe through.
	Cooldown time.Duration
}

// DefaultCallPolicy returns production-shaped defaults: 5s deadlines, 4
// attempts with 10ms..1s jittered backoff, breaker at 3 consecutive
// failures with a 500ms cooldown.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{
		Timeout:       5 * time.Second,
		Attempts:      4,
		Backoff:       10 * time.Millisecond,
		MaxBackoff:    time.Second,
		FailThreshold: 3,
		Cooldown:      500 * time.Millisecond,
	}
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one shard's three-state health tracker. Closed passes calls
// through; FailThreshold consecutive transport failures open it; after
// Cooldown a single half-open probe is admitted — success closes the
// breaker, failure re-opens it for another cooldown.
type breaker struct {
	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
}

// allow reports whether a call may proceed now.
func (b *breaker) allow(p *CallPolicy, now time.Time) bool {
	if p.FailThreshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < p.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) failure(p *CallPolicy, now time.Time) {
	if p.FailThreshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails++
	b.probing = false
	if b.state == breakerHalfOpen || b.fails >= p.FailThreshold {
		b.state = breakerOpen
		b.openedAt = now
	}
	b.mu.Unlock()
}

func (b *breaker) current() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryTransport applies a CallPolicy to every RPC of an inner layer.
// Reads are idempotent by construction (vertex-/seed-pure draws at pinned
// epochs); Update, Lease and Release are stamped with idempotency tokens the
// server deduplicates, so "the request executed but the reply was lost"
// retries cannot double-apply a mutation or leak a lease. Per-shard breakers
// convert a persistently failing shard into immediate ShardDownError
// fast-fails, on which the batch pipeline parks until the shard answers.
type RetryTransport struct {
	facade
	Caller // the inner layer; Close is not retried
	Policy CallPolicy

	breakers []breaker        // one per shard
	now      func() time.Time // the breaker clock

	mu  sync.Mutex
	rng sampling.Rng // deterministic backoff jitter

	tokens atomic.Uint64
	nonce  uint64

	retries   atomic.Int64
	fastFails atomic.Int64
}

// NewRetryTransport wraps inner (serving parts shards) with policy. Seed
// drives only the backoff-jitter stream (deterministic so chaos tests are
// reproducible — jitter affects timing, never data). The idempotency-token
// nonce is deliberately NOT derived from seed: it is drawn from crypto/rand
// per transport, so multiple worker processes sharing the same shard servers
// (which all tend to pass the same fixed seed) can never mint colliding
// token sequences and alias each other's entries in the server dedup ring.
func NewRetryTransport(inner Caller, parts int, policy CallPolicy, seed uint64) *RetryTransport {
	if policy.Attempts < 1 {
		policy.Attempts = 1
	}
	if policy.MaxBackoff < policy.Backoff {
		policy.MaxBackoff = policy.Backoff
	}
	t := &RetryTransport{
		Caller:   inner,
		Policy:   policy,
		breakers: make([]breaker, max(parts, 1)),
		now:      time.Now,
		rng:      *sampling.NewRng(seed ^ 0x9E3779B97F4A7C15),
		nonce:    randomNonce(seed),
	}
	t.facade = facade{t}
	return t
}

// breakerFor returns part's breaker, clamping out-of-range parts.
func (t *RetryTransport) breakerFor(part int) *breaker {
	return &t.breakers[min(max(part, 0), len(t.breakers)-1)]
}

// randomNonce draws a process-unique 64-bit token nonce, falling back to a
// seed-mixed constant only if the system entropy source is unavailable.
func randomNonce(seed uint64) uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return seed*0x2545F4914F6CDD1D + 0x9E3779B97F4A7C15
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Retries reports how many retry attempts (beyond first attempts) the
// transport has issued.
func (t *RetryTransport) Retries() int64 { return t.retries.Load() }

// FastFails reports how many calls were rejected immediately by an open
// breaker.
func (t *RetryTransport) FastFails() int64 { return t.fastFails.Load() }

// BreakerOpen reports whether part's breaker is currently open (tests,
// diagnostics).
func (t *RetryTransport) BreakerOpen(part int) bool {
	if part < 0 || part >= len(t.breakers) {
		return false
	}
	return t.breakers[part].current() == breakerOpen
}

// nextToken mints a client-unique idempotency token (never 0). The full
// 64-bit counter is XOR-mixed with the random nonce, so tokens cannot wrap
// and repeat within a process lifetime (a reused token still sitting in the
// server dedup ring would return a stale recorded reply), and two clients
// collide only if their random nonces differ exactly by the XOR of two small
// counters — vanishingly unlikely at a 64-bit nonce.
func (t *RetryTransport) nextToken() uint64 {
	tok := t.nonce ^ t.tokens.Add(1)
	if tok == 0 {
		tok = 1
	}
	return tok
}

// sleepBackoff waits the jittered exponential backoff before retry attempt
// `attempt` (0-based count of completed attempts).
func (t *RetryTransport) sleepBackoff(attempt int) {
	b := t.Policy.Backoff
	if b <= 0 {
		return
	}
	d := b << uint(min(attempt, 20))
	if d > t.Policy.MaxBackoff || d < b {
		d = t.Policy.MaxBackoff
	}
	t.mu.Lock()
	j := t.rng.Float64()
	t.mu.Unlock()
	time.Sleep(time.Duration(float64(d) * (0.5 + 0.5*j)))
}

// Kicker is no longer implemented by any layer: a deadline fails only its
// own call, and RPCTransport closes a silent connection itself. The
// declaration stays because perfbench's recorder still forwards it.
type Kicker interface {
	Kick(part int)
}

// Call implements Caller: the retry loop. Update, Lease and Release are
// stamped with an idempotency token once, before the first attempt, so a
// retry whose predecessor executed (reply lost) gets the server's recorded
// reply instead of re-applying a batch, pinning a second lease, or dropping
// another pin's lease (leases are refcounted). Compaction needs no token:
// folding an already-folded floor is a no-op. Each attempt gets a fresh
// reply value under a context bounded by Policy.Timeout; the caller's reply
// is written exactly once, after a successful attempt. Retrying stops early
// once ctx itself ends.
func (t *RetryTransport) Call(ctx context.Context, part int, m Method, req, reply any) error {
	spec := &methods[m]
	if spec.stamp != nil {
		req = spec.stamp(req, t.nextToken)
	}
	br := t.breakerFor(part)
	var last error
	for attempt := 0; ; attempt++ {
		if !br.allow(&t.Policy, t.now()) {
			t.fastFails.Add(1)
			if last == nil {
				last = errBreakerOpen
			}
			return &ShardDownError{Part: part, Err: last}
		}
		r := spec.newReply()
		actx, cancel := ctx, func() {}
		if t.Policy.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, t.Policy.Timeout)
		}
		err := t.Caller.Call(actx, part, m, req, r)
		cancel()
		if err == nil {
			br.success()
			spec.copyReply(reply, r)
			return nil
		}
		if !IsTransient(err) {
			// The server answered with an application error (unknown vertex,
			// evicted epoch): the shard is healthy and a verbatim retry would
			// fail identically. Surface it unchanged.
			br.success()
			return err
		}
		br.failure(&t.Policy, t.now())
		last = err
		if attempt+1 >= t.Policy.Attempts || ctx.Err() != nil {
			break
		}
		t.retries.Add(1)
		t.sleepBackoff(attempt)
	}
	return &ShardDownError{Part: part, Err: last}
}
