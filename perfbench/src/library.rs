//! Direct library solves: `coarsest_partition` with `Parallel` (warm at all
//! cores, warm in a 1-thread pool, cold on a fresh context) and
//! `SequentialLinear`, each answer checked against a verified reference.

use crate::alloc::measure_peak;
use sfcp::{coarsest_partition, Algorithm, Instance, Partition};
use sfcp_pram::Ctx;
use std::time::{Duration, Instant};

/// An instance with its verified answer in canonical (first-occurrence)
/// numbering.
pub struct Reference {
    /// The instance.
    pub instance: Instance,
    /// Canonical labels of its coarsest partition.
    pub canonical: Vec<u32>,
}

impl Reference {
    /// Solve `instance` on `ctx` and check the answer with
    /// [`sfcp::verify::verify`], whose coarseness test uses the independent
    /// fixpoint oracle.
    ///
    /// # Errors
    /// The verifier's complaint when the solver's answer is wrong.
    pub fn new(ctx: &Ctx, instance: Instance, algorithm: Algorithm) -> Result<Reference, String> {
        let q = coarsest_partition(ctx, &instance, algorithm);
        sfcp::verify(&instance, &q).map_err(|e| format!("reference rejected: {e}"))?;
        let canonical = q.canonical().into_labels();
        Ok(Reference {
            instance,
            canonical,
        })
    }

    /// Whether `labels` describe the reference partition.
    #[must_use]
    pub fn matches(&self, labels: &[u32]) -> bool {
        same_partition(labels, &self.canonical)
    }
}

/// Whether `labels` and `canonical` (labels `0..k` in first-occurrence
/// order) describe the same partition: the label correspondence must be a
/// bijection.  Linear time and allocation-light, so checking every timed
/// solve costs little next to the solve.
#[must_use]
pub fn same_partition(labels: &[u32], canonical: &[u32]) -> bool {
    if labels.len() != canonical.len() {
        return false;
    }
    let mut forward: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut backward = vec![u32::MAX; canonical.len()];
    for (&l, &c) in labels.iter().zip(canonical) {
        let Some(slot) = backward.get_mut(c as usize) else {
            return false;
        };
        if *slot == u32::MAX {
            *slot = l;
            if forward.insert(l, c).is_some() {
                return false;
            }
        } else if *slot != l {
            return false;
        }
    }
    true
}

/// Samples of one run of library solves, in milliseconds.
#[derive(Debug, Default)]
pub struct LibrarySamples {
    /// Warm `Parallel` solves at all cores.
    pub parallel: Vec<f64>,
    /// Warm `Parallel` solves in a 1-thread pool.
    pub one_thread: Vec<f64>,
    /// `Parallel` solves on a fresh context each.
    pub cold: Vec<f64>,
    /// `SequentialLinear` solves.
    pub sequential: Vec<f64>,
    /// Solves made, timed or not.
    pub attempted: u64,
    /// Solves whose answer differed from the reference.
    pub wrong: u64,
}

/// The warm contexts a run keeps: one for all cores, one used only inside
/// a 1-thread pool.
pub struct Contexts {
    /// Warm context at all cores.
    pub all: Ctx,
    /// Warm context for the 1-thread pool.
    pub one: Ctx,
    /// The 1-thread pool.
    pub pool: rayon::ThreadPool,
}

impl Contexts {
    /// Fresh contexts (untracked, as a caller timing wall clock would use).
    #[must_use]
    pub fn new() -> Contexts {
        Contexts {
            all: Ctx::untracked(sfcp_pram::Mode::Parallel),
            one: Ctx::untracked(sfcp_pram::Mode::Parallel),
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("the 1-thread pool cannot fail to build"),
        }
    }

    /// One solve in the 1-thread pool, so its timed solves find full pools
    /// (the reference solve warms `all`).
    pub fn warm_up(&self, instance: &Instance) {
        let _ = self
            .pool
            .install(|| coarsest_partition(&self.one, instance, Algorithm::Parallel));
    }
}

impl Default for Contexts {
    fn default() -> Self {
        Contexts::new()
    }
}

/// Share of a pass's budget per solve kind, in `LibrarySamples` order.
const SHARES: [f64; 4] = [0.35, 0.25, 0.25, 0.15];

impl LibrarySamples {
    /// Count one solve of kind `slot` (the order of the fields above) and
    /// keep its time; a wrong answer is counted and its time kept too.
    pub fn record(&mut self, slot: usize, labels: &[u32], ms: f64, reference: &Reference) {
        self.attempted += 1;
        self.wrong += u64::from(!reference.matches(labels));
        let series = [
            &mut self.parallel,
            &mut self.one_thread,
            &mut self.cold,
            &mut self.sequential,
        ];
        series
            .into_iter()
            .nth(slot)
            .expect("four solve kinds")
            .push(ms);
    }
}

fn timed(f: impl FnOnce() -> Partition) -> (Partition, f64) {
    let start = Instant::now();
    let q = std::hint::black_box(f());
    (q, start.elapsed().as_secs_f64() * 1e3)
}

/// One pass over the four solve kinds, adding to `s`: every kind runs a
/// block of solves for its share of `budget` ([`SHARES`]).  A run makes
/// many short passes spread over its length, so every kind samples the
/// host's fast and slow spells alike.  The first solve of a block finds
/// caches the block before it evicted; the metrics take the fastest solve,
/// so it needs no untimed warm-up.  Every answer is checked outside the
/// timed region.
pub fn measure(reference: &Reference, ctxs: &Contexts, budget: Duration, s: &mut LibrarySamples) {
    let inst = &reference.instance;
    let solvers: [&dyn Fn() -> Partition; 4] = [
        &|| coarsest_partition(&ctxs.all, inst, Algorithm::Parallel),
        &|| {
            ctxs.pool
                .install(|| coarsest_partition(&ctxs.one, inst, Algorithm::Parallel))
        },
        &|| {
            let ctx = Ctx::untracked(sfcp_pram::Mode::Parallel);
            coarsest_partition(&ctx, inst, Algorithm::Parallel)
        },
        &|| coarsest_partition(&ctxs.all, inst, Algorithm::SequentialLinear),
    ];
    for (slot, solve) in solvers.iter().enumerate() {
        let block = budget.mul_f64(SHARES[slot]);
        let start = Instant::now();
        loop {
            let (q, ms) = timed(solve);
            s.record(slot, q.labels(), ms, reference);
            // Stop before a solve as long as the last would overrun the block.
            if start.elapsed() + Duration::from_secs_f64(ms / 1e3) > block {
                break;
            }
        }
    }
}

/// Peak heap of one solve, in bytes per node.
#[derive(Debug, Clone, Copy)]
pub struct Peaks {
    /// Warm `Parallel`: pooled workspace held before the solve plus the
    /// live-heap growth during it.
    pub parallel: f64,
    /// `SequentialLinear`: live-heap growth during the solve.
    pub sequential: f64,
    /// Whether both answers matched the reference.
    pub correct: bool,
}

/// One untimed solve of each algorithm under the counting allocator.
#[must_use]
pub fn peaks(reference: &Reference, warm: &Ctx) -> Peaks {
    let inst = &reference.instance;
    let n = inst.len().max(1) as f64;
    let pooled = warm.workspace().pooled_bytes();
    let (par, par_peak) = measure_peak(|| coarsest_partition(warm, inst, Algorithm::Parallel));
    let (seq, seq_peak) =
        measure_peak(|| coarsest_partition(warm, inst, Algorithm::SequentialLinear));
    Peaks {
        parallel: (pooled + par_peak) as f64 / n,
        sequential: seq_peak as f64 / n,
        correct: reference.matches(par.labels()) && reference.matches(seq.labels()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_comparison_is_up_to_relabelling() {
        assert!(same_partition(&[5, 9, 5, 7], &[0, 1, 0, 2]));
        assert!(
            !same_partition(&[5, 9, 5, 5], &[0, 1, 0, 2]),
            "merged blocks"
        );
        assert!(!same_partition(&[5, 9, 6, 7], &[0, 1, 0, 2]), "split block");
        assert!(!same_partition(&[5, 9, 5], &[0, 1, 0, 2]), "length");
    }

    #[test]
    fn a_corrupted_answer_is_counted_as_wrong() {
        let ctx = Ctx::parallel();
        let reference =
            Reference::new(&ctx, Instance::random(1 << 10, 4, 5), Algorithm::Parallel).unwrap();
        let ctxs = Contexts::new();
        let mut s = LibrarySamples::default();
        measure(&reference, &ctxs, Duration::ZERO, &mut s);
        measure(&reference, &ctxs, Duration::ZERO, &mut s);
        // Per pass, one timed solve of each kind.
        assert_eq!((s.attempted, s.wrong), (8, 0));
        assert_eq!(
            (
                s.parallel.len(),
                s.one_thread.len(),
                s.cold.len(),
                s.sequential.len()
            ),
            (2, 2, 2, 2)
        );

        // Move element 0 into the block of some element outside its own.
        let mut corrupted = reference.canonical.clone();
        let other = corrupted.iter().position(|&l| l != corrupted[0]).unwrap();
        corrupted[0] = corrupted[other];
        s.record(0, &corrupted, 1.0, &reference);
        assert_eq!((s.attempted, s.wrong, s.parallel.len()), (9, 1, 3));
    }
}
