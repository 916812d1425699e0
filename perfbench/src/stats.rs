//! Timing, order statistics and process diagnostics shared by the workloads.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted copy.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Runs `f`, pushing its host time in seconds to `into`.
pub fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    into.push(secs_since(t0));
    out
}

/// Times `chunks` chunks of `per_chunk` calls of `f(k)` (`k` counts every
/// call) and pushes each chunk's time divided by the total call count, so
/// the pushed pieces add up to the mean time of one call. For program calls
/// too short to time one at a time.
pub fn batched<T>(
    into: &mut Vec<f64>,
    chunks: usize,
    per_chunk: usize,
    mut f: impl FnMut(usize) -> T,
) {
    let calls = (chunks * per_chunk).max(1) as f64;
    for c in 0..chunks {
        let t0 = Instant::now();
        for k in c * per_chunk..(c + 1) * per_chunk {
            std::hint::black_box(f(k));
        }
        into.push(secs_since(t0) / calls);
    }
}

/// Each piece's fastest time over the passes folded in so far. Every pass
/// runs the same pieces in the same order, and load from other tenants of
/// the host only ever adds time, so the per-piece minimum is each piece's
/// undisturbed cost.
#[derive(Debug, Default)]
pub struct Fastest {
    mins: Vec<f64>,
}

impl Fastest {
    /// Folds one pass's piece times in.
    pub fn fold(&mut self, pass: &[f64]) {
        if self.mins.is_empty() {
            self.mins = pass.to_vec();
        }
        for (m, t) in self.mins.iter_mut().zip(pass) {
            *m = m.min(*t);
        }
    }

    /// The per-piece minima.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Their sum: a pass rebuilt from its pieces' fastest times.
    pub fn total(&self) -> f64 {
        self.mins.iter().sum()
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This thread's accumulated run-queue wait in nanoseconds: the second
/// field of `/proc/thread-self/schedstat` (time runnable but not running).
pub fn sched_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Share of a wall-clock window that this thread spent waiting for a CPU.
pub struct CpuWait {
    wall: Instant,
    wait_ns: u64,
}

impl CpuWait {
    /// Starts the window.
    pub fn start() -> Self {
        CpuWait { wall: Instant::now(), wait_ns: sched_wait_ns() }
    }

    /// Run-queue wait over the window, as a share of its wall time.
    pub fn share(&self) -> f64 {
        let waited = sched_wait_ns().saturating_sub(self.wait_ns) as f64 * 1e-9;
        share(waited, secs_since(self.wall))
    }
}

/// A glibc `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, and a rotation over them.
///
/// On a shared host one CPU can be slowed for seconds by work this
/// process cannot see (a busy sibling hyperthread). Running each pass on
/// the next allowed CPU keeps one slow CPU from slowing every pass.
pub struct CpuRotation {
    cpus: Vec<u32>,
    next: usize,
}

impl CpuRotation {
    /// Reads the allowed set; empty (no rotation) if the kernel refuses.
    pub fn new() -> Self {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live buffer of `size_of_val(&set)` bytes that
        // the call fills in; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        let cpus = if rc == 0 {
            (0..1024u32).filter(|&c| set[(c / 64) as usize] & (1 << (c % 64)) != 0).collect()
        } else {
            Vec::new()
        };
        CpuRotation { cpus, next: 0 }
    }

    /// The allowed CPUs.
    pub fn cpus(&self) -> &[u32] {
        &self.cpus
    }

    /// Pins this thread to the next CPU of the rotation.
    pub fn advance(&mut self) {
        let Some(&cpu) = self.cpus.get(self.next % self.cpus.len().max(1)) else { return };
        self.next += 1;
        let mut set: CpuSet = [0; 16];
        set[(cpu / 64) as usize] = 1 << (cpu % 64);
        // SAFETY: `set` is a live, initialised buffer of `size_of_val(&set)`
        // bytes; pid 0 names the calling thread. A refusal leaves the
        // affinity unchanged, which is harmless.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
