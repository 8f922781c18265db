package service

import (
	"container/list"
	"sync"
	"time"

	"rqm"
)

// cachedProfile is one materialized sampling pass: the profile plus the
// request-independent metadata the profile endpoints serve from it. Once
// cached, every estimate and solve against it is answered in O(sample) with
// no compression run and no re-sampling — the paper's "predict before you
// compress" asset turned into a serving hot path.
type cachedProfile struct {
	// ID is the content-addressed cache key (hash of field bytes plus the
	// profile-relevant options), so identical uploads always hit.
	ID string
	// Codec and Predictor name the profiled configuration.
	Codec     string
	Predictor string
	// Profile is the sampling product all answers derive from.
	Profile *rqm.Profile
	// BuildTime is the sampling-pass cost the cache saves on every hit.
	BuildTime time.Duration
	// CreatedAt is when the profile was built.
	CreatedAt time.Time
}

// profileCache is a mutex-guarded LRU keyed by content hash. Entries are
// immutable after insert, so lookups can be served concurrently with only
// the recency bookkeeping under the lock.
type profileCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recent
	byID  map[string]*list.Element // values are *cachedProfile
}

func newProfileCache(capacity int) *profileCache {
	if capacity < 1 {
		capacity = 1
	}
	return &profileCache{
		cap:   capacity,
		order: list.New(),
		byID:  map[string]*list.Element{},
	}
}

// get returns the cached profile for id, refreshing its recency.
func (c *profileCache) get(id string) (*cachedProfile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cachedProfile), true
}

// put inserts p, evicting the least recently used entry beyond capacity.
// It returns the number of evicted entries.
func (c *profileCache) put(p *cachedProfile) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[p.ID]; ok {
		c.order.MoveToFront(el)
		el.Value = p
		return 0
	}
	c.byID[p.ID] = c.order.PushFront(p)
	evicted := 0
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byID, last.Value.(*cachedProfile).ID)
		evicted++
	}
	return evicted
}

// len reports the live entry count.
func (c *profileCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// purge empties the cache (benchmarks use it to force the cold path).
func (c *profileCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.byID = map[string]*list.Element{}
}
