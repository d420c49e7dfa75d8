//! Sharded LRU cache keyed on `(epoch, s, t, w)`, generic over what it
//! stores: [`ResultCache`] holds query answers, the router's potential cache
//! holds whole per-endpoint distance rows in the same structure.
//!
//! Point-query traffic against an immutable [`wcsd_core::WcIndex`] is
//! embarrassingly cacheable: the answer to `(s, t, w)` never changes for the
//! lifetime of the loaded index, so the cache needs no invalidation — only
//! bounded memory. Each shard is an independent [`std::sync::Mutex`]-guarded
//! LRU list (slab-backed doubly linked list + hash map), so concurrent
//! connections rarely contend on the same lock. Hit/miss counters are lock-free
//! atomics feeding the `STATS` command and the load-generator report.
//!
//! Capacity is counted in *distance cells* ([`CacheValue::cells`]): an answer
//! is one cell, so a [`ResultCache`] of capacity `n` holds `n` answers, while
//! a distance row costs its length plus [`ENTRY_OVERHEAD_CELLS`] and
//! inserting one evicts as many least-recently-used entries as it takes to
//! fit.
//!
//! Hot reload does need invalidation, and gets it by *epoch tagging* instead
//! of a stop-the-world clear: the key carries the generation of the snapshot
//! that computed the answer, so after a `RELOAD` swap every lookup under the
//! new generation misses the old entries, which then age out of the LRU lists
//! naturally. Swapping a snapshot is O(1) with respect to the cache.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use wcsd_graph::{Distance, Quality, VertexId};
use wcsd_obs::Counter;

/// What a [`ShardedLru`] can store: a cheaply clonable value that knows how
/// many distance cells of the cache's capacity it occupies.
pub trait CacheValue: Clone {
    /// Distance cells this value occupies.
    fn cells(&self) -> usize;
}

impl CacheValue for CachedAnswer {
    fn cells(&self) -> usize {
        1
    }
}

/// What an entry costs beyond its payload — slab node, recency links and map
/// slot, on the order of 64 bytes — in four-byte distance cells.
pub const ENTRY_OVERHEAD_CELLS: usize = 16;

/// A shared row of distances (one endpoint's boundary potentials): its length
/// plus the entry overhead, so short rows cannot fill memory with bookkeeping
/// the cell count does not see.
impl CacheValue for Arc<[Distance]> {
    fn cells(&self) -> usize {
        ENTRY_OVERHEAD_CELLS + self.len()
    }
}

/// Cache key: the snapshot generation that computed the answer plus one
/// point query. Tagging the generation into the key is what keeps the cache
/// coherent across hot reloads (see the module docs).
pub type QueryKey = (u64, VertexId, VertexId, Quality);

/// Cached value: the query answer (`None` = unreachable, which is just as
/// worth caching as a finite distance).
pub type CachedAnswer = Option<Distance>;

const NIL: usize = usize::MAX;

struct Node<V> {
    key: QueryKey,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: a slab of nodes threaded into a doubly linked recency list,
/// plus a hash map from key to slab slot.
struct Shard<V> {
    map: HashMap<QueryKey, usize>,
    slab: Vec<Node<V>>,
    /// Slab slots vacated by eviction, reused before the slab grows.
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// Cell budget, and the cells the resident values occupy.
    capacity: usize,
    used: usize,
}

impl<V: CacheValue> Shard<V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1024)),
            slab: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            used: 0,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn get(&mut self, key: &QueryKey) -> Option<V> {
        let slot = *self.map.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(self.slab[slot].value.clone())
    }

    /// Takes `slot` out of the recency list and hands its cells and its slab
    /// slot back (the caller removes the map entry).
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        self.used -= self.slab[slot].value.cells();
        self.free.push(slot);
    }

    /// Stores `value`, evicting from the least recently used end until it
    /// fits. A value larger than the whole shard is not stored at all.
    fn insert(&mut self, key: QueryKey, value: V) {
        let cells = value.cells();
        if cells > self.capacity {
            return;
        }
        if let Some(slot) = self.map.remove(&key) {
            self.release(slot);
        }
        while self.used + cells > self.capacity {
            let victim = self.tail;
            self.map.remove(&self.slab[victim].key);
            self.release(victim);
        }
        let node = Node { key, value, prev: NIL, next: NIL };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = node;
                slot
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.used += cells;
        self.map.insert(key, slot);
        self.push_front(slot);
    }
}

/// A sharded, bounded, thread-safe LRU cache, generic over the value it
/// stores (see [`CacheValue`]). [`ResultCache`] is the instance every server
/// tier uses for query answers.
///
/// A `capacity` of 0 disables caching entirely: every lookup misses and
/// inserts are dropped, so the server code path stays uniform.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    // `Arc<Counter>` rather than bare atomics so the server can register the
    // very same counters into its metric registry: `STATS` and `METRICS`
    // then read one set of atomics and can never disagree on cache totals.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

/// The query-result cache: one cell per answer, so `capacity` counts entries.
///
/// ```
/// use wcsd_server::cache::ResultCache;
///
/// let cache = ResultCache::new(128, 4);
/// assert_eq!(cache.get(&(1, 0, 1, 2)), None);
/// cache.insert((1, 0, 1, 2), Some(7));
/// assert_eq!(cache.get(&(1, 0, 1, 2)), Some(Some(7)));
/// assert_eq!(cache.get(&(2, 0, 1, 2)), None); // a new epoch misses
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 2);
/// ```
pub type ResultCache = ShardedLru<CachedAnswer>;

impl<V: CacheValue> ShardedLru<V> {
    /// Creates a cache holding at most `capacity` cells spread over `shards`
    /// independent locks (shard count is clamped to at least 1 and at most
    /// `capacity` so every shard holds at least one cell). The per-shard
    /// capacities sum to exactly `capacity`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let (base, extra) = (capacity / shards, capacity % shards);
        Self {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
                .collect(),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }

    /// A cache that never stores anything (capacity 0).
    pub fn disabled() -> Self {
        Self::new(0, 1)
    }

    fn shard_of(&self, key: &QueryKey) -> &Mutex<Shard<V>> {
        // Fibonacci-hash the key into a shard; the std HashMap hasher is not
        // reachable for one-off hashes without allocation, and this mixer is
        // plenty for distributing (epoch, s, t, w) tuples.
        let mut h = key.0.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= (key.1 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (key.2 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= (key.3 as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        h ^= h >> 29;
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up a query, promoting it to most-recently-used on a hit and
    /// bumping the hit/miss counters either way.
    pub fn get(&self, key: &QueryKey) -> Option<V> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        let found = if shard.capacity == 0 { None } else { shard.get(key) };
        drop(shard);
        match found {
            Some(v) => {
                self.hits.inc();
                Some(v)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores a value, evicting least recently used entries of the target
    /// shard until it fits (a value larger than the shard is dropped).
    pub fn insert(&self, key: QueryKey, value: V) {
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        if shard.capacity > 0 {
            shard.insert(key, value);
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Distance cells the cached values occupy across all shards; never
    /// more than the configured capacity.
    pub fn cells(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").used).sum()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that fell through to the index so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The live hit counter, shareable with a metric registry.
    pub fn hit_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.hits)
    }

    /// The live miss counter, shareable with a metric registry.
    pub fn miss_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.misses)
    }

    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let c = ResultCache::new(16, 2);
        assert_eq!(c.get(&(1, 1, 2, 3)), None);
        c.insert((1, 1, 2, 3), Some(9));
        c.insert((1, 4, 5, 6), None);
        assert_eq!(c.get(&(1, 1, 2, 3)), Some(Some(9)));
        assert_eq!(c.get(&(1, 4, 5, 6)), Some(None)); // unreachable is cached too
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        // Single shard so the eviction order is fully deterministic.
        let c = ResultCache::new(2, 1);
        c.insert((1, 0, 0, 1), Some(0));
        c.insert((1, 1, 1, 1), Some(1));
        assert_eq!(c.get(&(1, 0, 0, 1)), Some(Some(0))); // touch key 0: key 1 is now LRU
        c.insert((1, 2, 2, 1), Some(2)); // evicts key 1
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&(1, 1, 1, 1)), None);
        assert_eq!(c.get(&(1, 0, 0, 1)), Some(Some(0)));
        assert_eq!(c.get(&(1, 2, 2, 1)), Some(Some(2)));
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let c = ResultCache::new(4, 1);
        c.insert((1, 1, 2, 3), Some(5));
        c.insert((1, 1, 2, 3), Some(6));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&(1, 1, 2, 3)), Some(Some(6)));
    }

    #[test]
    fn epoch_tag_isolates_generations() {
        // The same (s, t, w) under a newer epoch misses, and the stale entry
        // is evicted by LRU pressure like any other key.
        let c = ResultCache::new(2, 1);
        c.insert((1, 7, 8, 2), Some(3));
        assert_eq!(c.get(&(2, 7, 8, 2)), None);
        c.insert((2, 7, 8, 2), Some(9));
        assert_eq!(c.get(&(1, 7, 8, 2)), Some(Some(3))); // old epoch still resident
        c.insert((2, 0, 1, 1), Some(1)); // evicts the LRU entry: (2, 7, 8, 2)
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&(2, 7, 8, 2)), None);
        assert_eq!(c.get(&(2, 0, 1, 1)), Some(Some(1)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::disabled();
        c.insert((1, 1, 2, 3), Some(5));
        assert_eq!(c.get(&(1, 1, 2, 3)), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.hit_rate(), 0.0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn many_inserts_respect_capacity() {
        let c = ResultCache::new(64, 8);
        for i in 0..10_000u32 {
            c.insert((1, i, i + 1, 1), Some(i));
        }
        assert!(c.len() <= 64, "len {} exceeds capacity", c.len());
        // The most recent key of some shard must still be present.
        assert_eq!(c.get(&(1, 9999, 10_000, 1)), Some(Some(9999)));
    }

    #[test]
    fn capacity_is_exact_across_shards() {
        // 17 over 16 shards must not round up to 32.
        let c = ResultCache::new(17, 16);
        for i in 0..1000u32 {
            c.insert((1, i, i, 1), Some(i));
        }
        assert!(c.len() <= 17, "len {} exceeds configured capacity", c.len());
        // Fewer entries than shards: shard count is clamped, capacity holds.
        let c = ResultCache::new(3, 16);
        for i in 0..100u32 {
            c.insert((1, i, i, 1), Some(i));
        }
        assert!(c.len() <= 3 && !c.is_empty());
    }

    #[test]
    fn rows_cost_their_length_and_evict_until_they_fit() {
        // A row of `cells` cells in all, overhead included.
        let row =
            |cells: usize| -> Arc<[Distance]> { vec![7; cells - ENTRY_OVERHEAD_CELLS].into() };
        let c: ShardedLru<Arc<[Distance]>> = ShardedLru::new(50, 1);
        c.insert((1, 0, 0, 1), row(20));
        c.insert((1, 1, 1, 1), row(20));
        assert_eq!(c.cells(), 40);
        c.insert((1, 2, 2, 1), row(30)); // evicts key 0 only: 20 + 30 fits
        assert_eq!((c.cells(), c.len()), (50, 2));
        assert!(c.get(&(1, 0, 0, 1)).is_none());
        c.insert((1, 3, 3, 1), row(45)); // evicts both residents
        assert_eq!((c.cells(), c.len()), (45, 1));
        c.insert((1, 4, 4, 1), row(51)); // larger than the cache: dropped
        assert_eq!((c.cells(), c.len()), (45, 1));
        c.insert((1, 3, 3, 1), row(18)); // same key: replaced, not added
        assert_eq!((c.cells(), c.len()), (18, 1));
        assert_eq!(c.get(&(1, 3, 3, 1)).as_deref(), Some(&[7, 7][..]));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = std::sync::Arc::new(ResultCache::new(1024, 8));
        std::thread::scope(|s| {
            for th in 0..4u32 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let key = (1, i % 97, (i + th) % 89, 1 + i % 5);
                        if let Some(v) = c.get(&key) {
                            assert_eq!(v, Some(key.1 + key.2));
                        } else {
                            c.insert(key, Some(key.1 + key.2));
                        }
                    }
                });
            }
        });
        assert_eq!(c.hits() + c.misses(), 2000);
    }
}
