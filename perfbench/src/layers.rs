//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Public calls into each module are timed here (`decompose`, the string
//! canonisation routines, `group_cycles`, `Worker::serve`, the codec); private
//! phases come from the span summary of a context built with
//! `Ctx::with_tracing()`.  The benchmark adds no spans inside the program.

use crate::library::{Contexts, Reference};
use crate::serve::{Item, RequestSet, Segment};
use crate::stats::median;
use sfcp::cycle_equivalence::{group_cycles, GroupingMethod};
use sfcp::{coarsest_partition, Algorithm, ParallelConfig};
use sfcp_forest::decompose;
use sfcp_pram::Ctx;
use sfcp_service::proto::RequestBody;
use sfcp_service::{BatchPolicy, Request, Response, Worker};
use sfcp_strings::{booth_msp, minimal_starting_point, smallest_period, smallest_period_seq};
use std::time::{Duration, Instant};

/// Span names summed into each span-derived layer metric.
const SPAN_LAYERS: &[(&str, &[&str])] = &[
    ("core.coarsest_parallel_ms", &["coarsest_parallel"]),
    ("core.label_tree_nodes_ms", &["label_tree_nodes"]),
    ("core.label_cycle_nodes_ms", &["label_cycle_nodes"]),
    ("parprim.radix_pass_ms", &["radix_pass"]),
    ("parprim.dense_ranks_of_pairs_ms", &["dense_ranks_of_pairs"]),
    ("pseudoforest.find_roots_ms", &["find_roots"]),
    ("parprim.list_rank_ms", &["list_rank", "list_rank_flagged"]),
    ("parprim.build_csr_ms", &["build_csr"]),
    ("parprim.ancestor_counts_ms", &["ancestor_counts"]),
];

/// Per-solve span walls (ms) by span name, plus the `doubling_round` count.
struct SpanSample {
    wall_ms: Vec<(&'static str, f64)>,
    doubling_rounds: u64,
}

fn span_sample(traced: &Ctx) -> SpanSample {
    let summary = traced.trace().snapshot().summary();
    traced.trace().clear();
    let wall = |name: &str| {
        summary
            .rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.wall_ns)
            .sum::<u64>() as f64
            / 1e6
    };
    let mut wall_ms: Vec<(&'static str, f64)> = SPAN_LAYERS
        .iter()
        .flat_map(|(_, names)| names.iter().map(|&n| (n, wall(n))))
        .collect();
    wall_ms.push(("decompose", wall("decompose")));
    SpanSample {
        wall_ms,
        doubling_rounds: summary
            .rows
            .iter()
            .find(|r| r.name == "doubling_round")
            .map_or(0, |r| r.count),
    }
}

/// Library-layer numbers of one traced run.
pub struct LibraryLayers {
    /// `(metric, value)` pairs in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Solves and timed calls made.
    pub attempted: u64,
    /// Wrong answers among them.
    pub wrong: u64,
    /// Span coverage of `coarsest_parallel` by its three phases.
    pub phase_coverage: f64,
}

/// Rounds of: one untraced and one traced warm solve, and timed calls to
/// `decompose`, the cycle canonisation routines and `group_cycles`, until
/// `budget` is spent.  Reports medians over rounds.
pub fn library(reference: &Reference, ctxs: &Contexts, budget: Duration) -> LibraryLayers {
    let inst = &reference.instance;
    // Both contexts track charges, so their ratio isolates tracing.
    let plain = Ctx::parallel();
    let _ = coarsest_partition(&plain, inst, Algorithm::Parallel);
    let traced = Ctx::parallel().with_tracing();
    let config = ParallelConfig::default();
    // Warm the traced context and take the exact charges of one solve.
    let _ = coarsest_partition(&traced, inst, Algorithm::Parallel);
    traced.trace().clear();
    let before = (traced.stats(), traced.workspace().stats());
    let q = coarsest_partition(&traced, inst, Algorithm::Parallel);
    let charge = traced.tracker().since(before.0);
    let ws = traced.workspace().stats();
    let pooled_bytes = traced.workspace().pooled_bytes();
    let mut wrong = u64::from(!reference.matches(q.labels()));
    let mut attempted = 1;
    let cold = Ctx::parallel();
    let q = coarsest_partition(&cold, inst, Algorithm::Parallel);
    wrong += u64::from(!reference.matches(q.labels()));
    attempted += 1;
    let cold_misses = cold.workspace().stats().misses;
    traced.trace().clear();

    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut decompose_ms, mut canonize_ms, mut group_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let b = inst.blocks();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let q = coarsest_partition(&plain, inst, Algorithm::Parallel);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        wrong += u64::from(!reference.matches(q.labels()));

        let t = Instant::now();
        let q = coarsest_partition(&traced, inst, Algorithm::Parallel);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        wrong += u64::from(!reference.matches(q.labels()));
        spans.push(span_sample(&traced));
        attempted += 2;

        let t = Instant::now();
        let dec = decompose(&ctxs.all, inst.graph(), config.cycle_method);
        decompose_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // The solver's canonisation step: long cycles through the paper's
        // parallel period and m.s.p. routines, short ones sequentially.
        let t = Instant::now();
        let threshold = config.parallel_strings_threshold.max(2);
        let canon: Vec<Vec<u32>> = ctxs.all.par_map_idx(dec.num_cycles(), |c| {
            let s: Vec<u32> = dec.cycle(c).iter().map(|&x| b[x as usize]).collect();
            let (p, r) = if s.len() >= threshold {
                let p = smallest_period(&ctxs.all, &s);
                (
                    p,
                    minimal_starting_point(&ctxs.all, &s[..p], config.msp_method),
                )
            } else {
                let p = smallest_period_seq(&s);
                (p, booth_msp(&s[..p]))
            };
            sfcp_strings::rotation(&s[..p], r)
        });
        canonize_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let classes =
            std::hint::black_box(group_cycles(&ctxs.all, &canon, GroupingMethod::Partition));
        group_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop((classes, dec));

        if start.elapsed() >= budget {
            break;
        }
    }

    let span_median = |name: &str| {
        median(
            &spans
                .iter()
                .map(|s| {
                    s.wall_ms
                        .iter()
                        .filter(|(n, _)| *n == name)
                        .map(|(_, v)| v)
                        .fold(0.0, |a, v| a + v)
                })
                .collect::<Vec<f64>>(),
        )
    };
    let mut metrics: Vec<(&'static str, f64)> = SPAN_LAYERS
        .iter()
        .map(|&(metric, names)| {
            (
                metric,
                names.iter().map(|n| span_median(n)).fold(0.0, |a, v| a + v),
            )
        })
        .collect();
    metrics.extend([
        (
            "core.doubling_rounds",
            median(
                &spans
                    .iter()
                    .map(|s| s.doubling_rounds as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("pseudoforest.decompose_ms", median(&decompose_ms)),
        ("strings.canonize_ms", median(&canonize_ms)),
        ("core.group_cycles_ms", median(&group_ms)),
        ("core.work", charge.work as f64),
        ("core.rounds", charge.rounds as f64),
        (
            "pram.ws_checkouts",
            (ws.checkouts - before.1.checkouts) as f64,
        ),
        ("pram.ws_misses", (ws.misses - before.1.misses) as f64),
        ("pram.cold_ws_misses", cold_misses as f64),
        ("pram.pooled_bytes", pooled_bytes as f64),
        ("trace_overhead", median(&traced_ms) / median(&untraced_ms)),
    ]);
    // Per round, the three phases' share of the whole solve's span.
    let coverage = median(
        &spans
            .iter()
            .map(|s| {
                let get = |name: &str| {
                    s.wall_ms
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |p| p.1)
                };
                (get("decompose") + get("label_cycle_nodes") + get("label_tree_nodes"))
                    / get("coarsest_parallel")
            })
            .collect::<Vec<_>>(),
    );
    LibraryLayers {
        metrics,
        attempted,
        wrong,
        phase_coverage: coverage,
    }
}

/// Service-layer numbers: the same request sequence the server answered,
/// replayed on a local [`Worker`] (no TCP) and through the codec alone.
pub struct ServiceLayers {
    /// `(metric, value)` pairs in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Replies checked.
    pub attempted: u64,
    /// Wrong replies or typed errors among them.
    pub failed: u64,
}

/// Replay `warm_up` then `items` on a fresh worker with the server's default
/// cache, timing `Worker::serve` and, separately, the request and response
/// encode and decode of each frame.
#[must_use]
pub fn service(
    set: &RequestSet,
    warm_up: &[Item],
    items: &[Item],
    served: &Segment,
) -> ServiceLayers {
    let defaults = sfcp_service::ServerConfig::default();
    let mut worker = Worker::new(
        0,
        defaults.cache_bytes,
        BatchPolicy::default(),
        defaults.cold_ctx,
    );
    for (j, &item) in warm_up.iter().enumerate() {
        let _ = worker.serve(j as u64, &set.request(item));
    }
    let (mut worker_ms, mut codec_ms) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for (j, &item) in items.iter().enumerate() {
        let req = set.request(item);
        let t = Instant::now();
        let response = worker.serve(j as u64, &req);
        worker_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!set.check(item, &response.outcome));

        let request = Request {
            id: j as u64,
            body: RequestBody::Compute(req),
        };
        let t = Instant::now();
        let decoded = Request::decode(&std::hint::black_box(request.encode()));
        let round_trip = Response::decode(&std::hint::black_box(response.encode()));
        codec_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed +=
            u64::from(decoded.as_ref() != Ok(&request) || round_trip.as_ref() != Ok(&response));
    }
    let serve_p50 = served.p50();
    let (worker_p50, codec_p50) = (median(&worker_ms), median(&codec_ms));
    let replies = served.replies.max(1) as f64;
    ServiceLayers {
        metrics: vec![
            ("service.serve_p50_ms", serve_p50),
            ("service.worker_ms", worker_p50),
            ("service.codec_ms", codec_p50),
            ("service.wire_ms", serve_p50 - worker_p50 - codec_p50),
            ("service.cache_hit_ratio", served.cached() as f64 / replies),
            (
                "service.gen_lag_ms",
                crate::stats::percentile(&served.lag_ms, 99.0),
            ),
        ],
        attempted: items.len() as u64,
        failed,
    }
}
