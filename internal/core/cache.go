package core

import (
	"container/list"
	"math"
	"slices"

	"ctgdvfs/internal/sched"
	"ctgdvfs/internal/stretch"
)

// DefaultCacheSize is the default bound of the memoized schedule cache.
const DefaultCacheSize = 64

// CacheStats reports the schedule cache's counters. Hits + Misses equals the
// number of rescheduling invocations that consulted the cache (the initial
// schedule included).
type CacheStats struct {
	Hits, Misses, Evictions int
	// Size is the current number of cached schedules (≤ the configured
	// bound).
	Size int
}

// scheduleCache memoizes the output of the online algorithm (DLS mapping +
// ordering + stretched speeds) keyed by the exact branch-probability vector
// it was computed for. Probabilities adopted by the adaptive manager are
// window estimates — exact rationals (count+1)/(window+outcomes) of integer
// window counts — so a recurring probability regime (a GOP cycle in an MPEG
// trace, a repeating road segment in cruise) reproduces the key bit for bit
// and reuses the schedule instead of re-running DLS + stretching. Keys store
// the IEEE-754 bit patterns of the probabilities, which makes equality exact
// (never approximate): a hit returns precisely what recomputation would.
//
// The cache is bounded LRU: the least recently used entry is evicted when
// the bound is exceeded.
type scheduleCache struct {
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	stats CacheStats
}

type cacheEntry struct {
	key      string
	schedule *sched.Schedule
	speeds   *stretch.ScenarioSpeeds // nil unless PerScenario mode
}

func newScheduleCache(capacity int) *scheduleCache {
	return &scheduleCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// cacheOp is one cache access a step stages: a lookup of key (hit or miss)
// or, when put is set, the insertion of a freshly computed schedule. Only
// commit applies them, in order.
type cacheOp struct {
	key string
	hit bool
	put *cacheEntry
}

// lookup answers a lookup of key as the cache would answer it after the
// staged accesses, touching nothing: the step's own hits and puts are the
// most recent entries, and each staged put past the bound evicts the entry
// apply would evict. A step reschedules at most twice (a topology remap,
// then drift or the breaker), so staged holds a handful of accesses at most.
func (c *scheduleCache) lookup(key string, staged []cacheOp) (*cacheEntry, bool) {
	var recent []*cacheEntry // touched by staged accesses, least recent first
	var gone []string        // committed entries staged puts evicted
	size := c.ll.Len()
	for _, op := range staged {
		switch {
		case op.put != nil:
			recent = append(recent, op.put)
			if size++; size > c.cap {
				size--
				if k, ok := c.lruUntouched(recent, gone); ok {
					gone = append(gone, k)
				} else {
					gone = append(gone, recent[0].key)
					recent = recent[1:]
				}
			}
		case op.hit:
			e := findEntry(recent, op.key)
			if e == nil {
				e = c.byKey[op.key].Value.(*cacheEntry)
			} else {
				recent = slices.DeleteFunc(recent, func(r *cacheEntry) bool { return r == e })
			}
			recent = append(recent, e)
		}
	}
	if e := findEntry(recent, key); e != nil {
		return e, true
	}
	if el, ok := c.byKey[key]; ok && !slices.Contains(gone, key) {
		return el.Value.(*cacheEntry), true
	}
	return nil, false
}

// lruUntouched returns the least recently used committed key that no staged
// access touched or evicted.
func (c *scheduleCache) lruUntouched(recent []*cacheEntry, gone []string) (string, bool) {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		k := el.Value.(*cacheEntry).key
		if findEntry(recent, k) == nil && !slices.Contains(gone, k) {
			return k, true
		}
	}
	return "", false
}

func findEntry(es []*cacheEntry, key string) *cacheEntry {
	for _, e := range es {
		if e.key == key {
			return e
		}
	}
	return nil
}

// apply performs one staged access: a lookup counts its hit or miss and a
// hit refreshes recency; a put inserts, evicting the LRU entry past the
// bound.
func (c *scheduleCache) apply(op cacheOp) {
	switch {
	case op.put != nil:
		c.byKey[op.key] = c.ll.PushFront(op.put)
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.byKey, oldest.Value.(*cacheEntry).key)
			c.stats.Evictions++
		}
	case op.hit:
		c.stats.Hits++
		c.ll.MoveToFront(c.byKey[op.key])
	default:
		c.stats.Misses++
	}
}

// snapshot returns the counters with the current size filled in.
func (c *scheduleCache) snapshot() CacheStats {
	st := c.stats
	st.Size = c.ll.Len()
	return st
}

// guardKey renders a non-zero effective guard band as a key suffix (the
// big-endian IEEE-754 bits), so schedules stretched at different guard
// levels never alias. Guard-0 keys carry no suffix, keeping them identical
// to the pre-recovery cache keys.
func guardKey(guard float64) string {
	var buf [8]byte
	bits := math.Float64bits(guard)
	for i := 0; i < 8; i++ {
		buf[i] = byte(bits >> (56 - 8*i))
	}
	return string(buf[:])
}

// probKey renders the manager's current branch-probability state as an exact
// cache key: the big-endian IEEE-754 bits of every outcome probability of
// every fork, in dense fork order.
func (m *Manager) probKey() string {
	buf := make([]byte, 0, 8*2*m.g.NumForks())
	for _, fork := range m.g.Forks() {
		for _, p := range m.g.BranchProbs(fork) {
			bits := math.Float64bits(p)
			for shift := 56; shift >= 0; shift -= 8 {
				buf = append(buf, byte(bits>>shift))
			}
		}
	}
	return string(buf)
}
