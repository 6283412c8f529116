//! Small helpers shared by the workloads: seeded hashing, traffic skew,
//! order statistics, block timing and process memory.

use std::time::Instant;

/// SplitMix64 finaliser: a cheap, seedable hash used to derive per-request
/// user ids inside timed loops without a pre-generated table.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash value.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf-like skew over `n` ranks with exponent `s > 1` (continuous inverse
/// CDF of a bounded power law): returns a 0-based rank, rank 0 the most
/// frequent. `u` is uniform in `[0, 1)`.
pub fn zipf_rank(u: f64, n: usize, s: f64) -> usize {
    let a = 1.0 - s;
    let top = (n as f64).powf(a);
    let r = ((top - 1.0) * u + 1.0).powf(1.0 / a);
    (r as usize).saturating_sub(1).min(n - 1)
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `v` ascending (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the values (sorted copy).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The favourable quartile of per-sub-phase results: the first quartile
/// of a time (`lower_is_better`), the third of a rate.
///
/// The shared reference host slows the whole VM for seconds at a time
/// (neighbour load, vCPU steal). That only ever makes a sub-phase slower,
/// so the faster quarter of sub-phases tracks the program, where their
/// median would track the host.
pub fn good_quartile(v: &[f64], lower_is_better: bool) -> f64 {
    percentile(&sorted(v.to_vec()), if lower_is_better { 0.25 } else { 0.75 })
}

/// Runs `f` `reps` times and returns the median wall time in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Waits until `due`: sleeps while more than half a millisecond remains,
/// then spins, so a request starts within microseconds of its due time.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left.as_micros() > 500 {
            std::thread::sleep(left - std::time::Duration::from_micros(400));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let n = 1000;
        let mut low = 0;
        for i in 0..10_000u64 {
            let r = zipf_rank(unit(mix64(i)), n, 1.1);
            assert!(r < n);
            low += usize::from(r < 10);
        }
        assert!(low > 3000, "top 1% of ranks got {low} of 10000 draws");
    }
}
