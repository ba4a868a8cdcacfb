//! Host normalization.
//!
//! The benchmark host drifts: memory-heavy code runs up to 1.8x slower
//! in phases lasting seconds to minutes. A fixed reference kernel timed
//! on the calling thread between ops, while no program thread runs,
//! slows down with it. Every normalized timing is
//!
//! ```text
//! normalized = raw * NOMINAL_REF_MS / median(adjacent reference readings)
//! ```
//!
//! The kernel calls no workspace crate and allocates through the
//! benchmark's own allocator, so no change to the program can move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The reference kernel's time on an undisturbed 2-vCPU x86-64 VM.
/// Frozen: changing it rescales every normalized timing.
pub const NOMINAL_REF_MS: f64 = 2.5;

const KERNEL_ITEMS: u64 = 3_000;

/// The reference kernel: a fixed, deterministic mix of allocation,
/// hashing, ordered-map inserts, sorting and string formatting — the
/// pipeline's own operation mix. About 2–3 ms.
pub fn kernel() -> u64 {
    let mut map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut tree = BTreeMap::new();
    let mut keys = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..KERNEL_ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("node-{}:{:x}", i % 509, x >> 44);
        *map.entry(key.clone()).or_insert(0) += i;
        tree.insert(x % 8_192, key);
        keys.push(x);
    }
    keys.sort_unstable();
    let mut acc = keys[keys.len() / 2] ^ map.len() as u64;
    for (k, v) in tree.iter().step_by(97) {
        acc = acc.wrapping_mul(31).wrapping_add(k ^ v.len() as u64);
    }
    acc
}

/// One timed run of [`kernel`], in ms.
pub fn reading() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Normalizes closed-loop op times. `refs[i]` was read just before op
/// `i` and `refs[i + 1]` just after it; each op is scaled by those two.
/// Wider windows tracked the host worse: over the same five cold-mine
/// runs the tail spread 1.4% with these two readings, 2.8% with three
/// on each side and 4.4% with ten.
pub fn normalize_ops(raw_ms: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(refs.len(), raw_ms.len() + 1, "one reading between every two ops");
    raw_ms
        .iter()
        .zip(refs.windows(2))
        .map(|(raw, pair)| raw * NOMINAL_REF_MS / median(pair))
        .collect()
}

/// Times a set-up in steps, with a reference reading before the first
/// step and after each one. Each step is normalized by the two readings
/// on either side of it, as [`normalize_ops`] does for ops: a set-up of
/// seconds spans several host phases, and readings taken only around
/// the whole of it tracked them badly (warm-mine's `setup_s` spread
/// 18–26% over ten runs).
pub struct StepClock {
    refs: Vec<f64>,
    raw_ms: f64,
    norm_ms: f64,
    last: Instant,
}

impl StepClock {
    pub fn start() -> StepClock {
        StepClock { refs: vec![reading()], raw_ms: 0.0, norm_ms: 0.0, last: Instant::now() }
    }

    /// Ends a step of host-bound work.
    pub fn step(&mut self) {
        self.lap(true);
    }

    /// Ends a step that is mostly fixed wall-clock waits, which do not
    /// scale with host speed: it counts raw.
    pub fn wait_step(&mut self) {
        self.lap(false);
    }

    fn lap(&mut self, scaled: bool) {
        let ms = self.last.elapsed().as_secs_f64() * 1e3;
        self.refs.push(reading());
        self.raw_ms += ms;
        self.norm_ms +=
            if scaled { normalize_ops(&[ms], &self.refs[self.refs.len() - 2..])[0] } else { ms };
        self.last = Instant::now();
    }

    /// Ends the last step; returns the set-up's raw and normalized
    /// seconds and the reference readings taken.
    pub fn finish(mut self) -> (f64, f64, Vec<f64>) {
        self.step();
        (self.raw_ms / 1e3, self.norm_ms / 1e3, self.refs)
    }
}
