//! What the host tells us about the run — peak memory, CPU time, steal,
//! and a fixed reference kernel that says how fast the host is right now —
//! and the one thing the run asks of it: a single CPU.

use std::fs;
use std::time::Instant;

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds this process's threads have spent on a CPU, from the
/// scheduler's nanosecond accounting (`/proc/self/task/*/schedstat`) —
/// `/proc/self/stat` only counts 10 ms ticks. Threads that have already
/// exited are not included; none exit during a query phase.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let on_cpu_ns: u64 = tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    on_cpu_ns as f64 / 1e9
}

/// Machine-wide `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn steal_and_total() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// Keep this process — and every thread it starts from now on — on one
/// CPU, the highest-numbered one it may use (CPU 0 takes the guest's
/// interrupts). On a shared two-vCPU guest a wake-up across vCPUs goes
/// through the hypervisor, and its cost moved 1.5x between hours in a way
/// nothing inside the guest tracks; on one CPU every hand-off between the
/// cluster's threads is a context switch, and a query costs CPU and memory
/// time only, which [`Calibration`] tracks. Returns the CPU chosen.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 bits, as glibc defines it.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..bytes * 8)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of `bytes` bytes that the call only
    // reads.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// A fixed reference kernel, read every few dozen milliseconds of timed
/// work: a xorshift walk of read-modify-writes over an 8 MB buffer. Its
/// time moves with the host's memory system (the part of this box that
/// moves: pure arithmetic repeats to 1 %), not with the code under test.
pub struct Calibration {
    buf: Vec<u64>,
}

/// What the kernel reads on this box when nothing disturbs it. Only a
/// scale: it makes a host-normalised time read as "ms on the quiet box"
/// instead of as a bare ratio. Changing it rescales every wall-clock metric.
pub const CALIB_NOMINAL_MS: f64 = 5.5;

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            buf: vec![1; 1 << 20],
        }
    }
}

impl Calibration {
    /// One reading, in ms.
    pub fn read_ms(&mut self) -> f64 {
        let mask = self.buf.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let t0 = Instant::now();
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[x as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&self.buf);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// How much slower than on the quiet box the host ran while `readings`
/// were taken.
pub fn slowdown(readings: &[f64]) -> f64 {
    readings.iter().sum::<f64>() / readings.len() as f64 / CALIB_NOMINAL_MS
}
