//! Golden-snapshot guard for the cycle-level timing model.
//!
//! The timing simulator was rewritten from a direct interpreter to an
//! event-driven core over a pre-decoded program representation, with the
//! contract that the rewrite is **cycle-for-cycle identical** — not merely
//! statistically close. This test pins the exact cycle count and
//! misprediction count of every table-1 microbenchmark, in both its
//! basic-block form and its compiled hyperblock form, under every memory
//! ordering model. The golden capture was taken from the legacy core; any
//! drift in the event engine (a changed wake-up order, an off-by-one in the
//! calendar queue, an LSQ short-cut) shows up as a one-line diff against
//! `tests/golden/timing_cycles.txt`.
//!
//! To re-bless after an *intentional* timing-model change:
//!
//! ```sh
//! CHF_BLESS=1 cargo test --test timing_golden
//! ```

use chf::core::pipeline::{compile, CompileConfig};
use chf::sim::timing::{simulate_timing_lowered, MemoryOrdering, TimingConfig};
use chf::sim::LoweredProgram;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/timing_cycles.txt";

const ORDERINGS: [(MemoryOrdering, &str); 3] = [
    (MemoryOrdering::Exact, "exact"),
    (MemoryOrdering::Conservative, "conservative"),
    (MemoryOrdering::Oracle, "oracle"),
];

/// One line per (benchmark, form, memory ordering): exact cycles and
/// mispredictions. Each function is lowered once and the handle reused
/// across the three orderings — the same access pattern the benchmark
/// harness uses, so handle reuse itself is under the golden contract.
fn snapshot() -> String {
    let mut out = String::new();
    out.push_str("# benchmark form ordering cycles mispredictions\n");
    for w in chf::workloads::microbenchmarks() {
        let compiled = compile(&w.function, &w.profile, &CompileConfig::default());
        for (form, f) in [("bb", &w.function), ("hb", &compiled.function)] {
            let lowered = LoweredProgram::lower(f);
            for (ordering, label) in ORDERINGS {
                let cfg = TimingConfig {
                    memory_ordering: ordering,
                    ..TimingConfig::trips()
                };
                let t = simulate_timing_lowered(&lowered, &w.args, &w.memory, &cfg)
                    .unwrap_or_else(|e| panic!("{} {form} {label}: {e}", w.name));
                assert_eq!(t.ret, Some(w.expected), "{} {form} {label}", w.name);
                writeln!(
                    out,
                    "{} {form} {label} {} {}",
                    w.name, t.cycles, t.mispredictions
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn timing_cycles_match_golden() {
    let actual = snapshot();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("CHF_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), actual.len());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with CHF_BLESS=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        let mut diff = String::new();
        for (e, a) in expected.lines().zip(actual.lines()) {
            if e != a {
                let _ = writeln!(diff, "-{e}\n+{a}");
            }
        }
        let (el, al) = (expected.lines().count(), actual.lines().count());
        if el != al {
            let _ = writeln!(diff, "line counts differ: expected {el}, actual {al}");
        }
        panic!(
            "cycle counts drifted from {GOLDEN_PATH} — the event-driven core \
             is no longer cycle-identical to the golden capture:\n{diff}"
        );
    }
}
