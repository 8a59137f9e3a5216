package main

import (
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rateLimiter is a per-client token bucket guarding /v1/search: each client
// key (IP) accrues rate tokens per second up to burst, and a request costs
// one token. A nil limiter (rate disabled) allows everything.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	clients map[string]*bucket
	// maxClients bounds the map; when full, the stalest bucket is evicted
	// (a full bucket carries no state worth keeping anyway).
	maxClients int
	// limited counts rejected requests, exported on /metrics.
	limited atomic.Int64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newRateLimiter returns nil when rate <= 0 (limiting disabled).
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 10
	}
	return &rateLimiter{
		rate:       rate,
		burst:      float64(burst),
		clients:    make(map[string]*bucket),
		maxClients: 1024,
	}
}

// allow spends one token for key, reporting whether the request may proceed
// and — when it may not — how long until a token accrues (the Retry-After
// hint).
func (l *rateLimiter) allow(key string, now time.Time) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[key]
	if b == nil {
		if len(l.clients) >= l.maxClients {
			l.evictStalest()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	l.limited.Add(1)
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// evictStalest drops the bucket with the oldest refill time. Called with the
// lock held; linear scan is fine at the 1024-client bound.
func (l *rateLimiter) evictStalest() {
	var oldestKey string
	var oldest time.Time
	first := true
	for k, b := range l.clients {
		if first || b.last.Before(oldest) {
			oldestKey, oldest, first = k, b.last, false
		}
	}
	if oldestKey != "" {
		delete(l.clients, oldestKey)
	}
}

// clientKey identifies the client for rate limiting: the first hop of
// X-Forwarded-For when present (the address a trusted proxy saw), else the
// connection's remote IP.
func clientKey(r *http.Request) string {
	if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
		if i := strings.IndexByte(xff, ','); i >= 0 {
			xff = xff[:i]
		}
		if ip := strings.TrimSpace(xff); ip != "" {
			return ip
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
