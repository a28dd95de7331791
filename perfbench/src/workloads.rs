//! The workload table: every workload the benchmark knows, as data.
//!
//! The runner, the traced run and the self-tests all enumerate
//! [`WORKLOADS`]; adding a workload means adding a row, not code.  Inputs are
//! generated from the `--seed` argument alone, so the same seed gives the same
//! inputs.  Sizes never depend on the seed (only contents do), so runs with
//! different seeds measure the same amount of work.

use rand::prelude::*;
use sfcp::Instance;
use sfcp_service::Kind;

/// Generator of one instance family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Instance::random(n, blocks)`: a uniformly random function.
    Random { blocks: usize },
    /// `Instance::deep(n, cycle, blocks)`: one path into a small cycle.
    Deep { cycle: usize, blocks: usize },
    /// Pure cycles: half the nodes on long cycles with short periods drawn
    /// from a shared pattern pool, half on short aperiodic cycles.
    CyclesMixed,
}

/// A request stream served by the open-loop client.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Families of the `partition` requests, in equal shares.
    pub partition_families: &'static [Family],
    /// Request mix: relative weight of each kind.
    pub mix: &'static [(Kind, u32)],
    /// Offered rate (requests per second) of the fixed-rate segment.
    pub offered_rps: f64,
}

/// One row of the table.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (the one-line reason in `BENCHMARK.json`).
    pub why: &'static str,
    /// Family of the instance solved directly through the library.
    pub family: Family,
    /// Size of that instance.
    pub n: usize,
}

/// Request sizes are log-uniform over `2^SERVE_LOG2_MIN ..= 2^SERVE_LOG2_MAX`.
pub const SERVE_LOG2_MIN: f64 = 10.0;
/// See [`SERVE_LOG2_MIN`].
pub const SERVE_LOG2_MAX: f64 = 15.0;
/// One request in `REPEAT_EVERY` repeats an earlier request's input exactly
/// (25%), so cache hits sit beside misses.
pub const REPEAT_EVERY: usize = 4;
const RANDOM_1M: Family = Family::Random { blocks: 8 };
const DEEP_CHAIN: Family = Family::Deep {
    cycle: 8,
    blocks: 4,
};

/// The one served stream, `serve_mixed`: every kind, mostly `partition`
/// (7 in 10; the other kinds 1 in 10 each), `partition` requests split
/// evenly over the three library families.  Every workload serves it (each
/// must report every metric), so the serve metrics measure the same traffic
/// everywhere and rows carry no stream of their own.
pub const SERVE_MIXED: Stream = Stream {
    partition_families: &[RANDOM_1M, DEEP_CHAIN, Family::CyclesMixed],
    mix: &[
        (Kind::Partition, 7),
        (Kind::MinimizeDfa, 1),
        (Kind::Canonize, 1),
        (Kind::Decompose, 1),
    ],
    offered_rps: 20.0,
};

/// The workloads.  `BENCHMARK.json` lists `random_1m` and `cycles_mixed`;
/// `deep_chain` runs by name only (see `README.md`).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "random_1m",
        why: "random function, shallow trees, nearly discrete partition: tree labelling is most of the solve",
        family: RANDOM_1M,
        n: 1 << 18,
    },
    Workload {
        name: "deep_chain",
        why: "one path of ~n nodes into a small cycle: depth ~n, one long list for root finding and list ranking",
        family: DEEP_CHAIN,
        n: 1 << 18,
    },
    Workload {
        name: "cycles_mixed",
        why: "pure cycles, long periodic and short aperiodic: only the cycle-labelling layers work; shows sequential keying cost",
        family: Family::CyclesMixed,
        n: 1 << 18,
    },
];

/// Look a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Family {
    /// Generate an instance of about `n` nodes (exactly `n` except for
    /// [`Family::CyclesMixed`], whose cycle lengths round it).
    #[must_use]
    pub fn instance(self, n: usize, seed: u64) -> Instance {
        match self {
            Family::Random { blocks } => Instance::random(n, blocks, seed),
            Family::Deep { cycle, blocks } => Instance::deep(n, cycle.min(n), blocks, seed),
            Family::CyclesMixed => cycles_mixed(n, seed),
        }
    }
}

/// Cycles at least this long run the paper's parallel period/m.s.p.
/// routines (`ParallelConfig::parallel_strings_threshold`).
const LONG_CYCLE: usize = 1 << 13;
/// Periods of the long cycles.
const PERIODS: &[usize] = &[2, 3, 4, 6, 8, 12, 16];
/// Patterns per period in the shared pool.
const PATTERNS_PER_PERIOD: usize = 3;
/// Label alphabet of the cycles.
const CYCLE_BLOCKS: u32 = 4;

/// Half the nodes on long cycles (`>= LONG_CYCLE` when `n` allows) whose
/// labels repeat a short pattern from a shared pool; the other half on
/// short cycles of length 2..=256 with random labels.
fn cycles_mixed(n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c1_c1e5);
    let long_len = LONG_CYCLE.min((n / 8).max(2));
    let mut lengths = Vec::new();
    let mut periods = Vec::new();
    let mut long_nodes = 0;
    loop {
        let period = PERIODS[rng.gen_range(0..PERIODS.len())].min(long_len);
        // A multiple of the period, `long_len` to 9/8 of it.
        let len = (long_len + rng.gen_range(0..=long_len / 8)).div_ceil(period) * period;
        if long_nodes + len > n / 2 {
            break;
        }
        lengths.push(len);
        periods.push(period);
        long_nodes += len;
    }
    let long_cycles = lengths.len();
    let mut rest = n - long_nodes;
    while rest > 0 {
        let len = rng.gen_range(2..=256usize).min(rest);
        lengths.push(len);
        rest -= len;
    }
    let pool: Vec<Vec<Vec<u32>>> = PERIODS
        .iter()
        .map(|&p| {
            (0..PATTERNS_PER_PERIOD)
                .map(|_| (0..p).map(|_| rng.gen_range(0..CYCLE_BLOCKS)).collect())
                .collect()
        })
        .collect();
    let graph = sfcp_forest::generators::cycles_only(&lengths, seed);
    // `cycles_only` shuffles node ids; walk each cycle to label it.  Cycles
    // are met in an order unrelated to `lengths`, so a long cycle finds its
    // period by its length (cycles of equal length share divisors).
    let mut blocks = vec![0u32; n];
    let mut seen = vec![false; n];
    for start in 0..n as u32 {
        if seen[start as usize] {
            continue;
        }
        let mut members = Vec::new();
        let mut x = start;
        while !seen[x as usize] {
            seen[x as usize] = true;
            members.push(x);
            x = graph.apply(x);
        }
        let long = lengths[..long_cycles]
            .iter()
            .position(|&l| l == members.len());
        if let Some(j) = long {
            let period = periods[j];
            let slot = PERIODS.iter().position(|&p| p == period).unwrap_or(0);
            let pattern = &pool[slot][rng.gen_range(0..PATTERNS_PER_PERIOD)];
            for (i, &m) in members.iter().enumerate() {
                blocks[m as usize] = pattern[i % pattern.len()];
            }
        } else {
            for &m in &members {
                blocks[m as usize] = rng.gen_range(0..CYCLE_BLOCKS);
            }
        }
    }
    Instance::from_graph(graph, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|v| v.name != w.name));
            assert_eq!(find(w.name).map(|v| v.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn generators_are_seeded_and_sized() {
        for family in [RANDOM_1M, DEEP_CHAIN, Family::CyclesMixed] {
            let a = family.instance(1 << 12, 7);
            assert_eq!(a, family.instance(1 << 12, 7));
            assert_ne!(a, family.instance(1 << 12, 8));
            for n in (2..2000).step_by(37).chain([1183, 1 << 15]) {
                for seed in 0..4 {
                    assert_eq!(family.instance(n, seed).len(), n, "{family:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn cycles_mixed_has_no_tree_nodes_and_both_cycle_kinds() {
        let inst = cycles_mixed(1 << 16, 3);
        let ctx = sfcp_pram::Ctx::parallel();
        let dec = sfcp_forest::decompose(&ctx, inst.graph(), sfcp_forest::CycleMethod::Euler);
        assert!(dec.is_cycle.iter().all(|&c| c));
        let long: usize = dec
            .cycles()
            .filter(|c| c.len() >= LONG_CYCLE)
            .map(<[u32]>::len)
            .sum();
        assert!(
            long * 4 >= inst.len() && long * 4 <= inst.len() * 3,
            "long share {long}"
        );
        assert!(dec.cycles().any(|c| c.len() <= 256));
    }
}
