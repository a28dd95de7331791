//! One benchmark run: set-up, measurement, and the report.

use crate::layers;
use crate::library::{self, Contexts, LibrarySamples, Reference};
use crate::serve::{self, Item, RequestSet, Segment};
use crate::stats::{fastest, median, percentile, tail};
use crate::workloads::{Workload, SERVE_MIXED};
use sfcp::Algorithm;
use sfcp_service::{Server, ServerConfig, ServerHandle};
use std::time::{Duration, Instant};

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Requests sent to a fresh server before measuring.
const WARM_UP_REQUESTS: usize = 8;
/// Share of `--seconds` spent on direct library solves; the rest serves at
/// the offered rate, rounded to whole deals of the request deck.
const LIBRARY_SHARE: f64 = 0.56;
/// Library passes in a run, each followed by a serving segment.
const ROUNDS: usize = 12;
/// The phases `decompose`, `label_cycle_nodes` and `label_tree_nodes` must
/// cover at least this share of the `coarsest_parallel` span.
const MIN_PHASE_COVERAGE: f64 = 0.9;
/// Worker and codec time, measured apart, may exceed the served p50 by at
/// most this share of it (`service.wire_ms` >= -`WIRE_SLACK` x p50).
const WIRE_SLACK: f64 = 0.1;

/// Command-line options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was obtained (sample counts, percentiles), for the log.
    pub note: String,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the log but left out of the JSON result: they
    /// spread too much from run to run to be judged by a bound.
    pub logged: Vec<Metric>,
    /// Operations attempted (solves, requests).
    pub attempted: u64,
    /// Wrong answers, typed errors, refused and timed-out requests.
    pub failed: u64,
    /// Consistency checks of the traced run: `(description, passed)`.
    pub checks: Vec<(String, bool)>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every answer was right and every value finite.  The
    /// consistency checks judge the measurement, not the program's answers,
    /// so they are reported beside the result and do not change it.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result, the last line a run prints.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Everything a run prepares before it measures.
pub struct Setup {
    /// The library instance and its verified answer.
    pub reference: Reference,
    /// Warm contexts.
    pub ctxs: Contexts,
    /// The request generator.
    pub set: RequestSet,
    /// The in-process server (default configuration).
    pub server: ServerHandle,
    /// Requests sent while warming the server.
    pub warm_up: Vec<Item>,
    /// Failures among them.
    pub warm_up_failed: u64,
}

/// Generate the inputs, verify the reference answers, start the server and
/// warm everything up.
///
/// # Errors
/// A rejected reference answer or a server that cannot start.
pub fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let ctxs = Contexts::new();
    let reference = Reference::new(&ctxs.all, w.family.instance(w.n, seed), Algorithm::Parallel)?;
    ctxs.warm_up(&reference.instance);
    let mut set = RequestSet::new(&SERVE_MIXED, seed)?;
    let server = Server::start(ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
    let warm_up = set.take(WARM_UP_REQUESTS);
    let seg = serve::open_loop(server.addr(), &set, &warm_up, 1e3);
    Ok(Setup {
        reference,
        ctxs,
        set,
        server,
        warm_up,
        warm_up_failed: seg.failed,
    })
}

/// Set up [`SETUP_REPEATS`] times, keeping the last; returns it with the
/// set-up times in seconds.
fn timed_setup(w: &Workload, seed: u64) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down first, so they never coexist.
        if let Some(previous) = last.take() {
            drop::<Setup>(previous);
        }
        let start = Instant::now();
        last = Some(setup(w, seed)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

fn ms_note(samples: &[f64]) -> String {
    format!(
        "fastest of {}, median {:.3}, max {:.3}",
        samples.len(),
        median(samples),
        percentile(samples, 100.0)
    )
}

/// Run one workload and report its metrics.
///
/// # Errors
/// As [`setup`].
pub fn run(o: &Options) -> Result<Report, String> {
    let w = o.workload;
    let (mut s, setup_times) = timed_setup(w, o.seed)?;
    let mut r = Report::default();
    r.count(s.warm_up.len() as u64, s.warm_up_failed);
    let library_budget = Duration::from_secs_f64(o.seconds * LIBRARY_SHARE);
    let serve_secs = o.seconds * (1.0 - LIBRARY_SHARE);
    let rate = SERVE_MIXED.offered_rps;
    let addr = s.server.addr();
    // Whole deals of the deck, so every seed serves the same multiset of
    // kinds and sizes; a short run takes part of one.
    let wanted = rate * serve_secs;
    let deal = s.set.deck_requests() as f64;
    let fixed_count = if wanted >= deal / 2.0 {
        deal * (wanted / deal).round()
    } else {
        wanted.ceil()
    };
    s.set.new_deck();
    let fixed_items = s.set.take(fixed_count as usize);

    if o.trace {
        let lib = layers::library(&s.reference, &s.ctxs, library_budget);
        r.count(lib.attempted, lib.wrong);
        for (name, value) in lib.metrics {
            r.push(name, value, unit_of(name), String::new());
        }
        let fixed = serve::open_loop(addr, &s.set, &fixed_items, rate);
        r.count(fixed.attempted, fixed.failed);
        let svc = layers::service(&s.set, &s.warm_up, &fixed_items, &fixed);
        r.count(svc.attempted, svc.failed);
        for (name, value) in svc.metrics {
            r.push(name, value, unit_of(name), String::new());
        }
        r.checks.push((
            format!(
                "decompose + label_cycle_nodes + label_tree_nodes cover {:.3} of coarsest_parallel (>= {MIN_PHASE_COVERAGE})",
                lib.phase_coverage
            ),
            lib.phase_coverage >= MIN_PHASE_COVERAGE && lib.phase_coverage <= 1.0 + 1e-9,
        ));
        let get = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        let (p50, worker, codec, wire) = (
            get("service.serve_p50_ms"),
            get("service.worker_ms"),
            get("service.codec_ms"),
            get("service.wire_ms"),
        );
        r.checks.push((
            format!(
                "worker {worker:.3} + codec {codec:.3} ms, timed apart, fit in serve p50 {p50:.3} ms (wire {wire:.3} ms >= -{WIRE_SLACK} x p50)"
            ),
            worker + codec <= (1.0 + WIRE_SLACK) * p50,
        ));
        return Ok(r);
    }

    // Library passes and serving segments alternate over the whole run, so
    // every metric samples the host's fast and slow spells alike.
    let mut lib = LibrarySamples::default();
    let mut fixed = Segment {
        rate,
        ..Segment::default()
    };
    let per_round = library_budget / ROUNDS as u32;
    for round in 0..ROUNDS {
        library::measure(&s.reference, &s.ctxs, per_round, &mut lib);
        let len = fixed_items.len();
        let chunk = &fixed_items[round * len / ROUNDS..(round + 1) * len / ROUNDS];
        fixed.extend(serve::open_loop(addr, &s.set, chunk, rate));
    }
    r.count(lib.attempted, lib.wrong);
    let peaks = library::peaks(&s.reference, &s.ctxs.all);
    r.count(2, u64::from(!peaks.correct));
    r.count(fixed.attempted, fixed.failed);

    let (tail_ms, tail_pct) = tail(&lib.parallel, 10);
    r.push(
        "solve_ms",
        fastest(&lib.parallel),
        "ms",
        ms_note(&lib.parallel),
    );
    // The tail follows the host's slow spells, not the program: printed, not
    // judged.
    r.logged.push(Metric {
        name: "solve_tail_ms",
        value: tail_ms,
        unit: "ms",
        note: format!(
            "p{tail_pct:.1} of {} solves, at least 10 beyond",
            lib.parallel.len()
        ),
    });
    r.push(
        "solve_1t_ms",
        fastest(&lib.one_thread),
        "ms",
        ms_note(&lib.one_thread),
    );
    r.push(
        "cold_solve_ms",
        fastest(&lib.cold),
        "ms",
        ms_note(&lib.cold),
    );
    // Memory-bound and single-threaded, it follows the host's slow spells
    // more than the other solves: printed, not judged.
    r.logged.push(Metric {
        name: "seq_solve_ms",
        value: fastest(&lib.sequential),
        unit: "ms",
        note: ms_note(&lib.sequential),
    });
    let n = s.reference.instance.len();
    r.push(
        "solve_peak_bytes_per_node",
        peaks.parallel,
        "bytes/node",
        format!("n = {n}"),
    );
    r.push(
        "seq_peak_bytes_per_node",
        peaks.sequential,
        "bytes/node",
        format!("n = {n}"),
    );
    r.push(
        "serve_ms",
        serve::best_per_base_ms(&fixed_items, &fixed),
        "ms",
        segment_note(&fixed),
    );
    r.logged.push(Metric {
        name: "serve_p50_ms",
        value: fixed.p50(),
        unit: "ms",
        note: segment_note(&fixed),
    });
    r.logged.push(Metric {
        name: "serve_p99_ms",
        value: fixed.p99(),
        unit: "ms",
        note: segment_note(&fixed),
    });
    r.push(
        "setup_s",
        median(&setup_times),
        "s",
        format!("median of {SETUP_REPEATS} set-ups"),
    );
    Ok(r)
}

fn segment_note(seg: &Segment) -> String {
    format!(
        "{} requests at {}/s, {} cache hits, generator lag p99 {:.2} ms",
        seg.attempted,
        seg.rate,
        seg.cached(),
        percentile(&seg.lag_ms, 99.0)
    )
}

/// Unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_ratio") || name == "trace_overhead" {
        "ratio"
    } else {
        "count"
    }
}
