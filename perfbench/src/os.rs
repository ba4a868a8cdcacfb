//! The two operating-system calls the benchmark needs and std lacks:
//! peak RSS (`getrusage`) and CPU affinity (`sched_{get,set}affinity`).
//! 64-bit Linux only.

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Peak resident set size in MB: of this process (`children == false`)
/// or the largest of its waited-for child processes (`children == true`).
pub fn peak_rss_mb(children: bool) -> f64 {
    // `struct rusage`: two `timeval`s (four i64), then fourteen `long`
    // fields, `ru_maxrss` (in KiB) first among them.
    let mut usage = [0i64; 18];
    // RUSAGE_CHILDREN or RUSAGE_SELF.
    let who = if children { -1 } else { 0 };
    // SAFETY: `usage` is a writable, 8-byte aligned buffer of 144 bytes,
    // the size of `struct rusage` on 64-bit Linux, and `who` is one of
    // the two values getrusage(2) accepts.
    if unsafe { getrusage(who, usage.as_mut_ptr()) } != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}

/// Keeps the calling thread, and every process it spawns, on one CPU
/// until dropped, then restores the previous CPU set.
///
/// The benchmark host's vCPUs drift in speed independently: unpinned,
/// a spawned op lands on the other vCPU than the reference readings
/// and the two stop tracking each other.
pub struct Pinned {
    previous: Option<CpuSet>,
}

impl Pinned {
    /// Pins to the lowest CPU the thread may run on. Pinning is best
    /// effort: on failure the thread stays as it was.
    pub fn lowest_cpu() -> Pinned {
        let mut current: CpuSet = [0; 16];
        // SAFETY: `current` is a writable buffer of exactly the 128 bytes
        // passed as its size; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, 128, current.as_mut_ptr()) } < 0 {
            return Pinned { previous: None };
        }
        let Some(word) = current.iter().position(|&w| w != 0) else {
            return Pinned { previous: None };
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << current[word].trailing_zeros();
        // SAFETY: `one` is a readable buffer of the 128 bytes passed as
        // its size, holding one CPU from the thread's allowed set.
        let pinned = unsafe { sched_setaffinity(0, 128, one.as_ptr()) } == 0;
        Pinned { previous: pinned.then_some(current) }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            // SAFETY: as in `lowest_cpu`; the set is the thread's own
            // earlier one. A failure leaves the thread pinned, which
            // only affects later measurements, so it is ignored.
            unsafe { sched_setaffinity(0, 128, previous.as_ptr()) };
        }
    }
}
