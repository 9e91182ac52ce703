//! Exact sample statistics and the small deterministic helpers the
//! workloads share (seeded RNG, FNV digest, peak RSS).

/// Raw samples of one quantity; percentiles come from the sorted values,
/// never from buckets, so a 10% change is visible at any magnitude.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile (0..=1) by linear interpolation between the
    /// closest ranks; 0 for an empty set.
    pub fn pct(&self, q: f64) -> f64 {
        quantile(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    /// The highest of p50/p90/p99/p99.9 that still has at least ten
    /// samples beyond it, with its value: the deepest tail the sample
    /// count can resolve.  `None` below twenty samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len() as f64;
        [0.999, 0.99, 0.9, 0.5]
            .into_iter()
            .find(|q| n * (1.0 - q) >= 10.0)
            .map(|q| (q, self.pct(q)))
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of a few repeated measurements (set-up times, sweep passes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, continued from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A CPU mask as `sched_setaffinity(2)` takes it: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

fn set_mask(mask: &CpuMask) {
    // SAFETY: `mask` is a valid, fully initialised `cpu_set_t`-sized buffer;
    // pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask);
    }
}

/// Let the calling thread run on every CPU again; the kernel keeps only
/// the CPUs it may use.  Threads and processes it starts inherit this.
pub fn unpin() {
    set_mask(&[u64::MAX; 16]);
}

/// While alive, the calling thread runs only on one CPU.
pub struct Pin;

impl Pin {
    /// Pin to the `i`-th (mod `n`) of the first `n` CPUs the thread may
    /// use; a no-op where affinity cannot be read.
    pub fn nth(i: usize, n: usize) -> Pin {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: as in `set_mask`; the kernel writes at most `size` bytes.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } >= 0;
        let cpus: Vec<usize> = (0..1024)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .take(n.max(1))
            .collect();
        if ok && !cpus.is_empty() {
            let cpu = cpus[i % cpus.len()];
            let mut one: CpuMask = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set_mask(&one);
        }
        Pin
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        unpin();
    }
}

/// Set-up time from `reps` set-ups, the `k`-th pinned to CPU `k mod
/// cpus` by [`Pin::nth`]: the mean over CPUs of each CPU's median.  The
/// vCPUs of a shared host can differ in speed by half, so a median over
/// whichever CPU the scheduler picked would jump between them.
pub fn per_cpu_median(secs: &[f64], cpus: usize) -> f64 {
    let cpus = cpus.clamp(1, secs.len().max(1));
    let on = |c: usize| -> Vec<f64> { secs.iter().skip(c).step_by(cpus).copied().collect() };
    let per: Vec<f64> = (0..cpus).map(|c| median(&on(c))).collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// Peak resident set (`VmHWM`) of a process in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_sorted_raw_samples() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(1.0), 5.0);
        assert!((s.pct(0.9) - 4.6).abs() < 1e-9);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..150 {
            s.push(i as f64);
        }
        // 150 samples: p99 leaves 1.5 beyond, p90 leaves 15.
        assert_eq!(s.tail().map(|t| t.0), Some(0.9));
        let mut small = Samples::default();
        small.push(1.0);
        assert_eq!(small.tail(), None);
    }

    #[test]
    fn per_cpu_median_weighs_cpus_equally() {
        // CPU 0 takes 1 s, CPU 1 takes 3 s: 2 s whichever way the
        // samples fall, where a plain median would pick one CPU.
        let secs = [1.0, 3.0, 1.1, 3.1, 0.9, 2.9];
        assert!((per_cpu_median(&secs, 2) - 2.0).abs() < 1e-9);
        assert_eq!(per_cpu_median(&secs, 1), median(&secs));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r1 = Rng::new(7, 1);
        let mut r2 = Rng::new(8, 1);
        assert_ne!(r1.next_u64(), r2.next_u64());
    }
}
