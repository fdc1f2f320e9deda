//! Spans around the benchmark's calls into each crate.
//!
//! A span names the layer a public call belongs to and accumulates its wall
//! time for the current pass. The spans the benchmark records are disjoint
//! children of the per-compile or per-simulation span that encloses them,
//! so each one is already its layer's self time. Work inside a call has no
//! public boundary and stays in the span of the call: the trial and
//! per-commit optimizer run inside `form_hyperblocks_with_profile` and are
//! part of `core.formation_ms`.
//!
//! With tracing off, [`Tracer::span`] only calls through.

use crate::metrics::{median, Values};
use std::time::Instant;

/// Per-pass span and count accumulator.
pub struct Tracer {
    on: bool,
    pass: Values,
}

impl Tracer {
    /// A tracer that records when `on`, and only calls through otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            pass: Values::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside the span `name`, adding its wall time in ms.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Add `v` to the pass total of `name` (a count, or a time measured by
    /// the caller).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.pass.entry(name).or_default() += v;
        }
    }

    /// The pass total of `name` so far.
    pub fn get(&self, name: &str) -> f64 {
        self.pass.get(name).copied().unwrap_or(0.0)
    }

    /// End the pass: hand back its totals and start the next one empty.
    pub fn end_pass(&mut self) -> Values {
        std::mem::take(&mut self.pass)
    }
}

/// Median of each named value over `passes`; a name missing from a pass
/// counts as 0 there.
pub fn medians(passes: &[Values]) -> Values {
    let mut names: Vec<&'static str> = passes.iter().flat_map(|p| p.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, median(&v))
        })
        .collect()
}
