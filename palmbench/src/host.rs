//! Host evidence: what the machine was doing around a run, so that a run
//! that disagrees can be told from a regression.  Info fields only — none of
//! this is a metric.

use std::time::Instant;

/// Cumulative `/proc/stat` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Jiffies across every column of the aggregate `cpu` line.
    pub total: u64,
    /// Jiffies stolen by the hypervisor.
    pub steal: u64,
    /// Context switches since boot.
    pub ctxt: u64,
}

pub fn proc_stat() -> ProcStat {
    let mut stat = ProcStat::default();
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("cpu") => {
                let columns: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
                stat.total = columns.iter().sum();
                stat.steal = columns.get(7).copied().unwrap_or(0);
            }
            Some("ctxt") => stat.ctxt = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0),
            _ => {}
        }
    }
    stat
}

pub fn mem_available_mib() -> u64 {
    proc_kib("/proc/meminfo", "MemAvailable:") / 1024
}

/// A `<key> <n> kB` line of a `/proc` status file, in KiB (0 when absent).
pub fn proc_kib(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process, and every child it starts from now on, to the
/// highest-numbered core it may run on; returns that core.  For the session
/// of cached round trips only (README.md, "Placement").
///
/// Client and server take turns, so every message wakes the thread that
/// waits for it.  Across two cores of a virtual machine that is an
/// inter-processor interrupt into a core that has been handed back to the
/// hypervisor (`HLT`): a cached request then takes 70 us, not 27, most of it
/// the hypervisor's.  On one core the wake-up is a context switch inside the
/// guest.
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: both calls act on this process (pid 0) and read or write
    // `size_of_val(&mask)` bytes through a pointer to the live `mask`.
    unsafe {
        if sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) < 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        mask = [0; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0)
            .then_some(word * 64 + bit)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds a fixed, bench-owned scalar loop takes (best of 5): a
/// dependent multiply-add chain that touches no memory, so it moves with the
/// core's speed and the scheduler's mood and with nothing in the repo.
pub fn calib_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = 1.000_000_1f64;
        for i in 0..2_000_000u32 {
            x = x * 1.000_000_3 + (i & 1) as f64 * 1e-12;
            if x > 2.0 {
                x -= 1.0;
            }
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// `git rev-parse HEAD` of the checkout, or `unknown` outside a repository
/// (the acceptance driver runs the benchmark from a plain directory).
pub fn git_rev(root: &std::path::Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
