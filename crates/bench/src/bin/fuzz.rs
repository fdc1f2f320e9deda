//! Tiered differential-fuzzing campaigns over the persistent trace corpus.
//!
//! Three modes share one binary:
//!
//! * **Replay** (`--replay`): re-measure every corpus entry under
//!   `tests/corpus/` and fail on any digest or outcome drift. Fast and
//!   deterministic — the JSON summary is byte-identical at any worker
//!   count.
//! * **Smoke** (`--smoke`, the CI gate): full corpus replay, a 500-fault
//!   chaos campaign feeding the fault-classification coverage rows, and a
//!   short coverage-guided generation loop that admits newly-covered
//!   minimized entries to the corpus.
//! * **Long** (`--long N`, nightly): the same campaign scaled to `N`
//!   faults with a proportionally longer guided loop.
//!
//! Usage: `fuzz [--replay|--smoke|--long N] [--corpus DIR] [--seed S]
//! [--no-admit]`. Environment: `CHF_JOBS` caps replay workers;
//! `CHF_CORPUS_REPLAY_CEILING_S` (default 10) is the replay-time budget the
//! gate enforces. The last line on stdout is always a one-line JSON
//! summary, also written to `target/gate/corpus_summary.json` (ignored by
//! git). Exits non-zero on drift, chaos failure, or a blown replay-time
//! budget.

use chf_corpus::{replay_corpus, run_fuzz, FuzzConfig};
use chf_service::parallel::workers;
use std::path::PathBuf;
use std::time::Instant;

/// Default campaign seed. Fixed so the CI gate is reproducible; nightly
/// runs pass an explicit `--seed` to explore.
const DEFAULT_SEED: u64 = 0x5EED_C0DE;

enum Mode {
    Replay,
    Smoke,
    Long(usize),
}

fn usage() -> ! {
    eprintln!("usage: fuzz [--replay|--smoke|--long N] [--corpus DIR] [--seed S] [--no-admit]");
    std::process::exit(2);
}

fn main() {
    let mut mode = Mode::Smoke;
    let mut corpus = PathBuf::from("tests/corpus");
    let mut seed = DEFAULT_SEED;
    let mut admit_new = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--replay" => mode = Mode::Replay,
            "--smoke" => mode = Mode::Smoke,
            "--long" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => mode = Mode::Long(n),
                None => usage(),
            },
            "--corpus" => match args.next() {
                Some(d) => corpus = PathBuf::from(d),
                None => usage(),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => usage(),
            },
            "--no-admit" => admit_new = false,
            _ => usage(),
        }
    }

    // Replay gate: every mode starts by proving the existing corpus still
    // measures exactly as pinned.
    let jobs = workers();
    let started = Instant::now();
    let replay = match replay_corpus(&corpus, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            std::process::exit(1);
        }
    };
    let replay_s = started.elapsed().as_secs_f64();
    println!(
        "corpus replay: {} entries, {} clean, {} drifted ({jobs} workers, {replay_s:.2} s)",
        replay.entries,
        replay.clean,
        replay.drifts.len()
    );
    for d in &replay.drifts {
        println!("  drift: {d}");
    }
    let ceiling_s: f64 = std::env::var("CHF_CORPUS_REPLAY_CEILING_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let too_slow = replay_s > ceiling_s;
    if too_slow {
        println!(
            "FAIL: replay took {replay_s:.2} s, over the {ceiling_s:.0} s budget — \
             the corpus has outgrown its gate; prune or raise CHF_CORPUS_REPLAY_CEILING_S"
        );
    }

    // Campaign half.
    let fuzz = match mode {
        Mode::Replay => None,
        Mode::Smoke => {
            println!("fuzz smoke: seed {seed:#x} (500 faults + guided loop)");
            Some(FuzzConfig::smoke(corpus.clone(), seed))
        }
        Mode::Long(n) => {
            println!("fuzz long: seed {seed:#x}, {n} faults");
            Some(FuzzConfig::long(corpus.clone(), seed, n))
        }
    }
    .map(|mut config| {
        config.admit_new = admit_new;
        match run_fuzz(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fuzz campaign failed: {e}");
                std::process::exit(1);
            }
        }
    });

    let mut ok = replay.is_clean() && !too_slow;
    let summary = match &fuzz {
        None => format!("{{{}}}", replay.json_fragment()),
        Some(f) => {
            println!(
                "guided loop: {} evaluated, {} filtered, {} new cells, {} admitted; \
                 chaos {}",
                f.evaluated,
                f.filtered,
                f.new_cells,
                f.admitted.len(),
                if f.chaos_ok { "clean" } else { "FAILED" }
            );
            for path in &f.admitted {
                println!("  admitted: {path}");
            }
            ok &= f.chaos_ok;
            format!("{{{},{}}}", replay.json_fragment(), f.json_fragment())
        }
    };

    chf_bench::write_summary("corpus_summary.json", &summary);
    if ok {
        println!("PASS: corpus replays clean");
    } else {
        println!("FAIL: see drifts/chaos above");
    }
    println!("{summary}");
    if !ok {
        std::process::exit(1);
    }
}
