//! The `service` workload: two client threads in a closed loop against one
//! `CompileService` with two workers.
//!
//! Each pass models one build session. A service starts and an untimed
//! warm-up fills its formation cache with the 43 paper functions under
//! (IUPO) and its shape cache with one tournament per composite. Two
//! clients, each waiting for every reply as a build system does, then work
//! through a seeded, shuffled stream of [`REQUESTS`] requests, dealt
//! alternately to the two clients:
//!
//! * half are repeats of paper functions: formation-cache hits, answered on
//!   the client's thread;
//! * two fifths are fresh generated programs (eight slices of the seeded
//!   pool, with the [`suite::SMALL`] sizes): cache misses that queue,
//!   compile on a worker and are inserted;
//! * one tenth are `compile_tournament` calls on composites: mostly
//!   shape-cache hits, with a full six-entrant portfolio whenever a cached
//!   winner falls outside the guard band.
//!
//! Only the stream is timed. A fresh service per pass keeps every pass's
//! hit/miss mix the same however fast the service is. Every artifact the
//! service returns is then checked under both simulators, untimed.

use crate::calibrate::Calibration;
use crate::metrics::{median, quantile, ratio, Report, Values};
use crate::suite::{self, Code, Program};
use crate::trace::{medians, Tracer};
use crate::{fingerprint, finish, setups, Fingerprint};
use chf_core::tournament::TournamentConfig;
use chf_core::Compiled;
use chf_ir::testgen::SplitMix64;
use chf_service::stats::ServiceStats;
use chf_service::{
    CompileRequest, CompileService, RequestStatus, ServiceConfig, TournamentRequest,
};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Client threads, and service workers: one each per core of the 2-core
/// reference machine.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

/// Generated-program slices per pass: the pass's cache misses.
const MISS_SLICES: usize = 8;

/// Requests per pass: hits, misses and tournaments in a 50/40/10 mix.
const REQUESTS: usize = MISS_SLICES * suite::programs(&suite::SMALL) * 10 / 4;

/// Passes whose misses the pool holds; later passes reuse them from the
/// start (each pass has a fresh cache, so they are misses again).
const POOL_PASSES: usize = 24;

struct Inputs {
    paper: Vec<Program>,
    slices: Vec<Vec<Program>>,
}

#[derive(Clone, Copy)]
enum Kind {
    Hit,
    Miss,
    Tournament,
}

/// What a client saw for one request.
struct Reply<'a> {
    kind: Kind,
    program: &'a Program,
    latency_ms: f64,
    /// Answered from the formation cache.
    cache_hit: bool,
    queue_wait_ms: f64,
    compile_ms: f64,
    /// The artifact, when the request ended `Done` (or the tournament
    /// crowned a winner).
    compiled: Option<Compiled>,
}

/// Start a service and warm it: every paper function once, then one
/// tournament per composite. Returns the service and the number of
/// warm-up operations that failed.
fn start(paper: &[Program]) -> (CompileService, usize) {
    let svc = CompileService::new(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    });
    let ids: Vec<_> = paper
        .iter()
        .map(|p| svc.submit(CompileRequest::ir(p.function.clone(), p.profile.clone())))
        .collect();
    let mut failed = ids
        .into_iter()
        .filter(|id| svc.wait(*id).status != RequestStatus::Done)
        .count();
    for p in paper.iter().filter(|p| p.composite) {
        failed += svc.compile_tournament(&tournament(p)).is_err() as usize;
    }
    (svc, failed)
}

fn tournament(p: &Program) -> TournamentRequest {
    TournamentRequest {
        function: p.function.clone(),
        profile: p.profile.clone(),
        args: p.args.clone(),
        memory: p.memory.clone(),
        config: TournamentConfig::default(),
    }
}

/// The seeded request stream of pass `pass`. Hits cycle through every
/// paper function and tournaments through every composite, so each pass
/// asks for all of them; the seed shuffles the order.
fn stream(inputs: &Inputs, seed: u64, pass: usize) -> Vec<(Kind, &Program)> {
    let composites: Vec<&Program> = inputs.paper.iter().filter(|p| p.composite).collect();
    let first = (pass % POOL_PASSES) * MISS_SLICES;
    let misses = inputs.slices[first..first + MISS_SLICES].iter().flatten();
    let mut reqs: Vec<(Kind, &Program)> = misses.map(|p| (Kind::Miss, p)).collect();
    let tournaments = REQUESTS / 10;
    let hits = REQUESTS - reqs.len() - tournaments;
    reqs.extend(
        inputs
            .paper
            .iter()
            .cycle()
            .take(hits)
            .map(|p| (Kind::Hit, p)),
    );
    reqs.extend(
        composites
            .into_iter()
            .cycle()
            .take(tournaments)
            .map(|p| (Kind::Tournament, p)),
    );
    let mut rng = SplitMix64::new(seed ^ (pass as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    reqs
}

/// One client's share of the stream, each request sent after the previous
/// reply.
fn client<'a>(svc: &CompileService, reqs: Vec<(Kind, &'a Program)>) -> Vec<Reply<'a>> {
    reqs.into_iter()
        .map(|(kind, program)| {
            let mut reply = Reply {
                kind,
                program,
                latency_ms: 0.0,
                cache_hit: false,
                queue_wait_ms: 0.0,
                compile_ms: 0.0,
                compiled: None,
            };
            match kind {
                Kind::Hit | Kind::Miss => {
                    let req = CompileRequest::ir(program.function.clone(), program.profile.clone());
                    let clock = Instant::now();
                    let resp = svc.wait(svc.submit(req));
                    reply.latency_ms = clock.elapsed().as_secs_f64() * 1e3;
                    reply.cache_hit = resp.cache_hit;
                    reply.queue_wait_ms = resp.queue_wait.as_secs_f64() * 1e3;
                    reply.compile_ms = resp.compile_time.as_secs_f64() * 1e3;
                    if resp.status == RequestStatus::Done {
                        reply.compiled = resp.compiled;
                    }
                }
                Kind::Tournament => {
                    let req = tournament(program);
                    let clock = Instant::now();
                    let out = svc.compile_tournament(&req);
                    reply.latency_ms = clock.elapsed().as_secs_f64() * 1e3;
                    reply.compiled = out.ok().map(|o| o.compiled);
                }
            }
            reply
        })
        .collect()
}

fn setup(seed: u64, v: &mut Values) -> (Inputs, CompileService, usize) {
    let clock = Instant::now();
    let paper = suite::paper();
    v.insert("setup.workloads_ms", clock.elapsed().as_secs_f64() * 1e3);
    let clock = Instant::now();
    let slices = suite::generated(seed, POOL_PASSES * MISS_SLICES, &suite::SMALL);
    v.insert("setup.testgen_ms", clock.elapsed().as_secs_f64() * 1e3);
    let clock = Instant::now();
    let (svc, failed) = start(&paper);
    v.insert("setup.warmup_ms", clock.elapsed().as_secs_f64() * 1e3);
    (Inputs { paper, slices }, svc, failed)
}

/// Counter deltas of one pass, from two [`ServiceStats`] snapshots.
fn stat_deltas(before: &ServiceStats, after: &ServiceStats) -> [f64; 8] {
    let d = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    [
        d(|s| s.cache_hits),
        d(|s| s.cache_hits + s.cache_misses + s.cache_corrupt_dropped),
        d(|s| s.shape_hits),
        d(|s| s.tournaments),
        d(|s| s.tournament_entrants),
        d(|s| s.guard_fallbacks),
        d(|s| s.retries),
        d(|s| s.rejected),
    ]
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut cal = Calibration::new(CLIENTS);
    let ((inputs, svc, failed), mut values) = setups(&mut cal, |v| setup(seed, v));
    let mut report = Report::default();
    for _ in 0..failed {
        report.tally(false);
    }
    let mut svc = Some(svc);
    let mut tracer = Tracer::new(trace);
    let mut off = Tracer::new(false);
    let mut checked: HashSet<(String, u64)> = HashSet::new();
    let mut pass_ms = Vec::new();
    let mut latencies = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    // Pooled over the traced passes.
    let mut by_layer: [Vec<f64>; 4] = Default::default();
    let mut first: Option<(Code, Fingerprint)> = None;

    let start_clock = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut k = 0;
    while k == 0 || start_clock.elapsed() < window {
        // Traced runs alternate untraced and traced passes; tracing adds
        // spans only to the untimed output check.
        let traced_pass = trace && k % 2 == 1;
        let t = if traced_pass { &mut tracer } else { &mut off };
        let svc = match svc.take() {
            Some(s) => s,
            None => {
                let (s, failed) = start(&inputs.paper);
                for _ in 0..failed {
                    report.tally(false);
                }
                s
            }
        };
        let reqs = stream(&inputs, seed, k / (1 + trace as usize));
        let mut shares: Vec<Vec<(Kind, &Program)>> = vec![Vec::new(); CLIENTS];
        for (i, r) in reqs.into_iter().enumerate() {
            shares[i % CLIENTS].push(r);
        }
        cal.sample();
        let before = svc.stats();
        let clock = Instant::now();
        let replies: Vec<Reply> = std::thread::scope(|s| {
            let handles: Vec<_> = shares
                .into_iter()
                .map(|share| s.spawn(|| client(&svc, share)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let deltas = stat_deltas(&before, &svc.stats());
        drop(svc);

        let mut code = Code::default();
        let mut fp = Fingerprint::new();
        let mut counted: HashSet<&str> = HashSet::new();
        for r in &replies {
            let Some(c) = &r.compiled else {
                eprintln!("request for {} did not complete", r.program.name);
                report.tally(false);
                continue;
            };
            report.tally(true);
            let text = c.function.to_string();
            let mut h = std::collections::hash_map::DefaultHasher::new();
            text.hash(&mut h);
            let key = (r.program.name.clone(), h.finish());
            // The output measures cover what the other workloads' first
            // pass covers: every paper function and the first slice of
            // generated programs, here under (IUPO). Tournament winners
            // depend on the order the two clients reached the shape cache,
            // so they stay out.
            let measured = k == 0
                && match r.kind {
                    Kind::Hit => true,
                    Kind::Miss => inputs.slices[0].iter().any(|p| std::ptr::eq(p, r.program)),
                    Kind::Tournament => false,
                };
            let fresh = checked.insert(key);
            if measured && counted.insert(&r.program.name) {
                fingerprint::add_compiled(&mut fp, c);
                report.tally(suite::check(r.program, &c.function, t, &mut code));
            } else if fresh {
                let mut ignored = Code::default();
                report.tally(suite::check(r.program, &c.function, t, &mut ignored));
            }
        }

        if traced_pass {
            overhead.push(ms - pass_ms.last().copied().unwrap_or(ms));
            for r in &replies {
                let (layer, v) = match (r.kind, r.cache_hit) {
                    (Kind::Tournament, _) => (3, r.latency_ms),
                    (_, true) => (2, r.latency_ms),
                    (_, false) => {
                        by_layer[0].push(r.queue_wait_ms);
                        (1, r.compile_ms)
                    }
                };
                by_layer[layer].push(v);
            }
            let [hits, lookups, shape_hits, tournaments, entrants, fallbacks, retries, rejected] =
                deltas;
            for (name, v) in [
                ("service.cache_hit_ratio", ratio(hits, lookups)),
                ("service.shape_hit_ratio", ratio(shape_hits, tournaments)),
                (
                    "service.entrants_per_tournament",
                    ratio(entrants, tournaments),
                ),
                ("service.guard_fallbacks", fallbacks),
                ("service.retries", retries),
                ("service.rejected", rejected),
            ] {
                t.add(name, v);
            }
            suite::sim_rates(t);
            traced.push(t.end_pass());
        } else {
            pass_ms.push(ms);
            latencies.extend(replies.iter().map(|r| r.latency_ms));
        }
        if first.is_none() {
            first = Some((code, fp));
        }
        k += 1;
    }

    let (code, mut fp) = first.expect("at least one pass");
    fingerprint::add_code(&mut fp, &code);
    values.extend([
        ("ops_per_s", REQUESTS as f64 / (median(&pass_ms) / 1e3)),
        ("op_p50_ms", median(&latencies)),
        ("op_p99_ms", quantile(&latencies, 0.99)),
        ("code_cycles", code.cycles as f64),
        ("code_dyn_blocks", code.dyn_blocks as f64),
    ]);
    if trace {
        values.extend(medians(&traced));
        values.extend(fingerprint::layer_counts(&fp));
        let names = [
            ("service.queue_wait_p50_ms", "service.queue_wait_p99_ms"),
            ("service.compile_p50_ms", "service.compile_p99_ms"),
            ("service.hit_p50_ms", "service.hit_p99_ms"),
            ("service.tournament_p50_ms", "service.tournament_p99_ms"),
        ];
        for ((p50, p99), v) in names.into_iter().zip(&by_layer) {
            values.insert(p50, median(v));
            values.insert(p99, quantile(v, 0.99));
        }
        values.insert("trace.overhead_ms", median(&overhead));
    }
    report.values = values;
    report.fingerprint = fp;
    finish(report, &cal, &pass_ms, latencies.len())
}
