//! Machine-speed calibration of every timed value.
//!
//! The reference container shares its two cores with other tenants. Their
//! load moves the pass times of an unchanged binary by 10-50% over minutes,
//! and CPU time tracks wall time, so the loss is in shared hardware (caches,
//! memory bandwidth, sibling hyperthreads), not in scheduling. No run length
//! averages that out.
//!
//! So a fixed kernel runs before every timed pass, on as many threads as
//! the workload keeps busy, so that it samples the cores the workload runs
//! on: integer hashing, building, sorting and probing a hash map, building
//! and scanning a B-tree of small allocations, and a table-driven
//! interpreter loop, the kinds of work the compiler and the simulators do.
//! It calls none of the repository's code, so no change to the repository
//! moves it. Every time the run reports is multiplied by
//! `REFERENCE_MS / k`, where `k` is the run's median kernel time: values
//! read as they would on the reference container with the kernel at
//! [`REFERENCE_MS`]. In a 4-minute probe on a loaded machine, this
//! kernel's parts cut the spread (quartile distance over median) of
//! 30-second medians of a compile pass from 0.24 to 0.01.

use crate::metrics::{median, Values};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference container (2-core Xeon at 2.0 GHz) when
/// other tenants leave it nearly idle.
pub const REFERENCE_MS: f64 = 25.0;

/// SplitMix64, kept here so the kernel depends on nothing in the workspace.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run the kernel once and return its wall time in ms.
fn kernel_ms() -> f64 {
    let clock = Instant::now();
    let mut x = 1u64;
    let mut acc = 0u64;
    for _ in 0..3_000_000 {
        acc = acc.wrapping_add(mix(&mut x) % 7);
    }
    // A fixed-key hasher, so every run builds the same table.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..60_000u64 {
        map.insert(mix(&mut x), i);
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    for k in &keys {
        acc = acc.wrapping_add(map[k]);
    }
    let mut tree = BTreeMap::new();
    for i in 0..40_000u64 {
        tree.insert(mix(&mut x) % 50_000, vec![i; 3]);
    }
    for (k, v) in tree.range(100..40_000) {
        acc = acc.wrapping_add(k + v[0]);
    }
    let table: Vec<u32> = (0..16_384).map(|_| mix(&mut x) as u32).collect();
    let mut pc = 0usize;
    for _ in 0..4_000_000 {
        let op = black_box(&table)[pc];
        acc = acc.wrapping_add(op as u64);
        pc = match op & 3 {
            0 => (pc + 7) & 16_383,
            1 => op as usize & 16_383,
            _ => (pc + 1) & 16_383,
        };
    }
    black_box(acc);
    clock.elapsed().as_secs_f64() * 1e3
}

/// The kernel times of one run.
pub struct Calibration {
    threads: usize,
    samples: Vec<f64>,
}

impl Calibration {
    /// Calibration for a workload that keeps `threads` threads busy. With
    /// one, the kernel runs on the calling thread, where a single-threaded
    /// workload runs; with more, on that many threads at once, sampling
    /// every core a tenant may load.
    pub fn new(threads: usize) -> Self {
        Calibration {
            threads,
            samples: Vec::new(),
        }
    }

    /// Run the kernel and record its time, the mean over the threads; call
    /// before every timed pass and set-up.
    pub fn sample(&mut self) {
        let times: Vec<f64> = if self.threads == 1 {
            vec![kernel_ms()]
        } else {
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..self.threads).map(|_| s.spawn(kernel_ms)).collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("calibration kernel panicked"))
                    .collect()
            })
        };
        self.samples
            .push(times.iter().sum::<f64>() / times.len() as f64);
    }

    /// Factor that scales this run's times to the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / median(&self.samples)
    }
}

/// Scale the timed entries of `v` by `factor`: names ending in `_per_s`
/// are rates and are divided; names ending in `_s`, `us_per_trial` or
/// `ns_per_block`, or holding `_ms`, are times and are multiplied; counts,
/// sizes, ratios and memory stay as they are.
pub fn scale(v: &mut Values, factor: f64) {
    for (name, value) in v.iter_mut() {
        if name.ends_with("_per_s") {
            *value /= factor;
        } else if name.ends_with("_s")
            || name.contains("_ms")
            || name.ends_with("us_per_trial")
            || name.ends_with("ns_per_block")
        {
            *value *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_touches_only_times_and_rates() {
        let mut v: Values = [
            ("setup_s", 2.0),
            ("ops_per_s", 2.0),
            ("op_p99_ms", 2.0),
            ("core.compile_ms.conv", 2.0),
            ("core.us_per_trial", 2.0),
            ("code_cycles", 2.0),
            ("peak_rss_mb", 2.0),
            ("core.merge_ratio", 2.0),
        ]
        .into_iter()
        .collect();
        scale(&mut v, 0.5);
        assert_eq!(v["setup_s"], 1.0);
        assert_eq!(v["ops_per_s"], 4.0);
        assert_eq!(v["op_p99_ms"], 1.0);
        assert_eq!(v["core.compile_ms.conv"], 1.0);
        assert_eq!(v["core.us_per_trial"], 1.0);
        for unscaled in ["code_cycles", "peak_rss_mb", "core.merge_ratio"] {
            assert_eq!(v[unscaled], 2.0);
        }
    }
}
