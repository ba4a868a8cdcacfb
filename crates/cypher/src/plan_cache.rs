//! Hashed query-plan cache.
//!
//! Compiled (parsed + optimized) queries are keyed on the FNV-1a
//! fingerprint of their whitespace-normalized source text plus the
//! graph's schema epoch ([`grm_pgraph::PropertyGraph::epoch`]), so a
//! mutated graph can never serve a plan optimized against stale
//! statistics. Time-to-live and LRU eviction run on a *logical* clock
//! (one tick per lookup) — no wall time anywhere — which keeps cache
//! behaviour, and therefore every journaled counter, byte-identical
//! across runs.

use std::collections::HashMap;
use std::sync::Arc;

use crate::optimizer::RewriteStats;
use crate::plan::Plan;

/// Collapses runs of whitespace to single spaces and trims — the
/// normalization under which two spellings of a query share one cache
/// entry.
pub fn normalize_text(src: &str) -> String {
    src.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// FNV-1a over `text`. Deterministic across processes (unlike the
/// standard library's seeded hasher), so fingerprints are safe to
/// journal or compare across runs.
pub fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sizing and expiry policy for a [`QueryPlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheConfig {
    /// Maximum cached plans; the least recently used entry is evicted
    /// to admit a new one. Treated as at least 1.
    pub capacity: usize,
    /// Expire entries older than this many lookups (logical ticks);
    /// `None` never expires.
    pub ttl_lookups: Option<u64>,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig { capacity: 256, ttl_lookups: None }
    }
}

/// Hit/miss/eviction counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Total lookups (`hits + misses`).
    pub lookups: u64,
    /// Lookups served from a cached plan.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, stale epoch, or
    /// expired).
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries dropped by the TTL.
    pub expirations: u64,
}

impl PlanCacheStats {
    /// Hits as a percentage of lookups (0 when nothing was looked up).
    pub fn hit_rate_pct(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.lookups as f64
        }
    }
}

/// A compiled query as the cache stores it: the slot-compiled plan of
/// the (possibly rewritten) query, plus what the optimizer did to it.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// Executable form of the query.
    pub plan: Plan,
    /// Rewrites the optimizer applied when compiling this plan.
    pub rewrites: RewriteStats,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// Normalized source text — guards against fingerprint collisions.
    text: String,
    epoch: u64,
    plan: Arc<CachedPlan>,
    cached_at: u64,
    last_used: u64,
}

/// The cache. Single-writer by design: scoring sessions own one each.
#[derive(Debug)]
pub struct QueryPlanCache {
    entries: HashMap<u64, CacheEntry>,
    config: PlanCacheConfig,
    tick: u64,
    stats: PlanCacheStats,
}

impl QueryPlanCache {
    /// Empty cache under `config`.
    pub fn new(config: PlanCacheConfig) -> Self {
        QueryPlanCache {
            entries: HashMap::new(),
            config,
            tick: 0,
            stats: PlanCacheStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Cached plans currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the plan for (`text`, `epoch`), advancing the logical
    /// clock. An entry compiled under a different epoch (the graph
    /// changed) or older than the TTL is dropped and reported as a
    /// miss.
    pub fn lookup(&mut self, text: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        self.stats.lookups += 1;
        let key = fingerprint(text);
        let mut expired = false;
        let mut stale = false;
        let mut found = None;
        if let Some(e) = self.entries.get_mut(&key) {
            if self
                .config
                .ttl_lookups
                .is_some_and(|ttl| self.tick.saturating_sub(e.cached_at) > ttl)
            {
                expired = true;
            } else if e.epoch != epoch || e.text != text {
                stale = true;
            } else {
                e.last_used = self.tick;
                found = Some(Arc::clone(&e.plan));
            }
        }
        if expired {
            self.entries.remove(&key);
            self.stats.expirations += 1;
        }
        if stale {
            self.entries.remove(&key);
        }
        match &found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Inserts a freshly compiled plan for (`text`, `epoch`), evicting
    /// the least-recently-used entry if the cache is full. Ties break
    /// on the fingerprint, so eviction order is deterministic.
    pub fn insert(&mut self, text: &str, epoch: u64, plan: CachedPlan) -> Arc<CachedPlan> {
        let key = fingerprint(text);
        if !self.entries.contains_key(&key) && self.entries.len() >= self.config.capacity.max(1) {
            if let Some((_, victim)) = self.entries.iter().map(|(k, e)| (e.last_used, *k)).min() {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        let plan = Arc::new(plan);
        self.entries.insert(
            key,
            CacheEntry {
                text: text.to_owned(),
                epoch,
                plan: Arc::clone(&plan),
                cached_at: self.tick,
                last_used: self.tick,
            },
        );
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(src: &str) -> CachedPlan {
        let g = grm_pgraph::PropertyGraph::new();
        CachedPlan {
            plan: Plan::compile(&parse(src).unwrap(), &g, true),
            rewrites: RewriteStats::default(),
        }
    }

    #[test]
    fn normalization_collapses_whitespace() {
        assert_eq!(normalize_text("  MATCH (n)\n  RETURN\tn  "), "MATCH (n) RETURN n");
        assert_eq!(
            fingerprint(&normalize_text("MATCH (n) RETURN n")),
            fingerprint(&normalize_text("MATCH  (n)\nRETURN n"))
        );
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let mut c = QueryPlanCache::new(PlanCacheConfig::default());
        assert!(c.lookup("MATCH (n) RETURN n", 7).is_none());
        c.insert("MATCH (n) RETURN n", 7, plan("MATCH (n) RETURN n"));
        assert!(c.lookup("MATCH (n) RETURN n", 7).is_some());
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn epoch_change_invalidates() {
        let mut c = QueryPlanCache::new(PlanCacheConfig::default());
        c.insert("MATCH (n) RETURN n", 1, plan("MATCH (n) RETURN n"));
        assert!(c.lookup("MATCH (n) RETURN n", 2).is_none());
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut c = QueryPlanCache::new(PlanCacheConfig { capacity: 2, ttl_lookups: None });
        c.insert("MATCH (a) RETURN a", 0, plan("MATCH (a) RETURN a"));
        c.insert("MATCH (b) RETURN b", 0, plan("MATCH (b) RETURN b"));
        // Touch `a` so `b` is the LRU victim.
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_some());
        c.insert("MATCH (x) RETURN x", 0, plan("MATCH (x) RETURN x"));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_some());
        assert!(c.lookup("MATCH (b) RETURN b", 0).is_none());
        assert!(c.lookup("MATCH (x) RETURN x", 0).is_some());
    }

    #[test]
    fn ttl_expires_on_logical_ticks() {
        let mut c = QueryPlanCache::new(PlanCacheConfig { capacity: 8, ttl_lookups: Some(2) });
        c.insert("MATCH (a) RETURN a", 0, plan("MATCH (a) RETURN a"));
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_some()); // tick 1
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_some()); // tick 2
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_none()); // tick 3 > ttl
        let s = c.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn reinsert_after_expiry_serves_again() {
        let mut c = QueryPlanCache::new(PlanCacheConfig { capacity: 8, ttl_lookups: Some(1) });
        c.insert("MATCH (a) RETURN a", 0, plan("MATCH (a) RETURN a"));
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_some());
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_none());
        c.insert("MATCH (a) RETURN a", 0, plan("MATCH (a) RETURN a"));
        assert!(c.lookup("MATCH (a) RETURN a", 0).is_some());
    }
}
