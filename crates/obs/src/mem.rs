//! Memory observability: the global tracking allocator and the
//! journal-v6 `Mem` record types.
//!
//! [`TrackingAlloc`] wraps [`System`] behind five relaxed atomics —
//! live bytes, peak bytes, cumulative allocated bytes, alloc and
//! dealloc counts. Binaries opt in with `#[global_allocator]`; code
//! that only links this crate (unit tests, libraries) pays nothing
//! and reads all-zero counters, so span records simply omit their
//! memory fields there. [`MemRecord`] carries three kinds of data in
//! one journal line: per-span allocation deltas (`kind = "span"`),
//! the run-wide allocator totals (`kind = "run"`), and deterministic
//! footprint tables (`kind = "footprint"`) computed from container
//! capacities rather than the allocator — the byte-exact quantities
//! CI can gate even where real allocator counts jitter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let size = size as u64;
    TOTAL_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

/// A `#[global_allocator]`-compatible wrapper around [`System`] that
/// counts every allocation. Installed by the `grm` and `repro`
/// binaries:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: grm_obs::TrackingAlloc = grm_obs::TrackingAlloc;
/// ```
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// Reads the current counters. All-zero when no binary installed
    /// the allocator — [`AllocSnapshot::is_tracking`] distinguishes.
    ///
    /// An allocation bumps live bytes before it raises the peak, so
    /// under concurrent allocation the stored peak can trail the live
    /// count. The snapshot raises the peak to the live bytes it read
    /// first: the reported peak is never below the reported live
    /// bytes, and stays monotone across snapshots.
    pub fn snapshot() -> AllocSnapshot {
        let live_bytes = LIVE_BYTES.load(Ordering::Relaxed);
        AllocSnapshot {
            live_bytes,
            peak_bytes: PEAK_BYTES.fetch_max(live_bytes, Ordering::Relaxed).max(live_bytes),
            total_alloc_bytes: TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
            alloc_count: ALLOCS.load(Ordering::Relaxed),
            dealloc_count: DEALLOCS.load(Ordering::Relaxed),
        }
    }
}

// SAFETY: delegates allocation verbatim to `System`; the atomics only
// observe sizes and never influence pointers or layouts.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// A point-in-time read of the tracking allocator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_bytes: u64,
    /// Cumulative bytes ever allocated (monotone).
    pub total_alloc_bytes: u64,
    /// Allocations since process start (monotone).
    pub alloc_count: u64,
    /// Deallocations since process start (monotone).
    pub dealloc_count: u64,
}

impl AllocSnapshot {
    /// True when the tracking allocator has observed at least one
    /// allocation — i.e. the running binary installed it.
    pub fn is_tracking(&self) -> bool {
        self.alloc_count > 0
    }
}

/// One component row of a footprint table: `count` instances of
/// `name` occupying `bytes` heap bytes (from container capacities —
/// deterministic for a fixed seed and scale).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FootprintRow {
    pub name: String,
    pub count: u64,
    pub bytes: u64,
}

/// A journal-v6 `Mem` line. `kind` selects which fields are
/// meaningful:
///
/// * `"span"` — allocation deltas between a span's open and close
///   (`alloc_bytes`/`alloc_count`/`dealloc_count`/`peak_delta`),
///   attributed to `span`; inclusive of child spans. Zeroed — and the
///   record omitted — in deterministic runs and in binaries without
///   the tracking allocator.
/// * `"run"` — the run-wide allocator totals between recorder start
///   and snapshot; `peak_bytes` is the process high-water mark.
/// * `"footprint"` — a deterministic byte table for `component`
///   (`graph`, `vecstore`, …) in `footprint`; survives deterministic
///   mode, so fault-rate-0/resume byte-identity holds.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemRecord {
    /// Owning span id (`None` for run-wide records).
    pub span: Option<u64>,
    /// `"span"`, `"run"`, or `"footprint"`.
    pub kind: String,
    /// Footprint component name (`graph`, `vecstore`); empty for
    /// span/run records.
    pub component: String,
    /// Bytes allocated (cumulative delta for spans; run total for
    /// `"run"`).
    pub alloc_bytes: u64,
    /// Allocations in the interval.
    pub alloc_count: u64,
    /// Deallocations in the interval.
    pub dealloc_count: u64,
    /// Growth of the process peak during the interval.
    pub peak_delta: u64,
    /// Absolute peak bytes (run records only).
    pub peak_bytes: u64,
    /// Footprint rows (footprint records only).
    pub footprint: Vec<FootprintRow>,
}

impl MemRecord {
    /// Builds a footprint record for `component` from its rows.
    pub fn footprint_of(component: &str, footprint: Vec<FootprintRow>) -> MemRecord {
        MemRecord {
            kind: "footprint".to_owned(),
            component: component.to_owned(),
            footprint,
            ..MemRecord::default()
        }
    }

    /// Total bytes over the footprint rows.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint.iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_defaults_to_not_tracking_without_the_allocator() {
        // Unit-test binaries never install `TrackingAlloc`, so the
        // atomics stay zero and tracking reads as off.
        let snap = TrackingAlloc::snapshot();
        assert_eq!(snap.alloc_count, 0);
        assert!(!snap.is_tracking());
    }

    #[test]
    fn footprint_record_sums_its_rows() {
        let rec = MemRecord::footprint_of(
            "graph",
            vec![
                FootprintRow { name: "nodes".into(), count: 10, bytes: 640 },
                FootprintRow { name: "edges".into(), count: 4, bytes: 320 },
            ],
        );
        assert_eq!(rec.kind, "footprint");
        assert_eq!(rec.component, "graph");
        assert_eq!(rec.footprint_bytes(), 960);
        crate::assert_roundtrip(&rec);
    }
}
