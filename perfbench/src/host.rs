//! What every result records about the host it ran on: CPU count,
//! compiler version, the score of a fixed calibration loop run in the
//! same process, and the process's peak resident memory.

use std::time::Instant;

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Milliseconds for a fixed integer-mixing loop: a host-speed yardstick
/// for comparing results taken on different machines.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two timevals (four longs), then
    // fourteen longs, the first of which is `ru_maxrss` in KB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable buffer of exactly the size and
    // alignment of the C `struct rusage` on 64-bit Linux, and
    // `RUSAGE_SELF` (0) asks only about this process.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage[4] as f64 / 1024.0
}
