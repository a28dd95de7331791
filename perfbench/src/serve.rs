//! Serving: request generation with checked answers and the open-loop
//! client.
//!
//! Inputs come from a small set of *bases* per request kind, each with a
//! verified answer.  A request derives a fresh input from a base and a
//! *salt* that changes the input's digest (so the snapshot cache misses)
//! while its answer follows from the base's in linear time: block labels are
//! XOR-ed with the salt (same partition), strings are rotated (same least
//! rotation), functions are conjugated by a rotation of the node ids (same
//! cycle counts).  Every fresh request is therefore a full solve whose answer
//! is still checked.

use crate::library::{same_partition, Reference};
use crate::stats;
use crate::workloads::{Family, Stream, REPEAT_EVERY, SERVE_LOG2_MAX, SERVE_LOG2_MIN};
use rand::prelude::*;
use sfcp::Algorithm;
use sfcp_pram::Ctx;
use sfcp_service::proto::{read_frame, write_frame, RequestBody, DEFAULT_MAX_FRAME_BYTES};
use sfcp_service::{ComputeRequest, ErrorReply, Kind, Reply, ReplyPayload, Request, Response};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bases per (kind, family), at log-uniformly spaced sizes.
const BASES_PER_FAMILY: usize = 6;
/// How long the receiver waits for any byte before giving the rest up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What a correct reply holds.
enum Expected {
    /// Partition labels, up to renumbering.
    Labels(Vec<u32>),
    /// The least rotation of the string.
    LeastRotation(Vec<u32>),
    /// Number of cycles and of cycle nodes.
    Cycles(u64, u64),
}

/// One base input with its verified answer.
struct Base {
    kind: Kind,
    /// `f` (or the string, for `canonize`).
    f: Vec<u32>,
    /// Block labels (partition kinds only).
    blocks: Vec<u32>,
    expected: Expected,
}

/// A request: a base and a salt (0 leaves the base unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Item {
    base: usize,
    salt: u32,
}

/// The bases of one run and the generator of its request stream.
pub struct RequestSet {
    bases: Vec<Base>,
    deck: Vec<usize>,
    rng: StdRng,
    issued: Vec<Item>,
    next_card: usize,
    next_salt: u32,
}

/// Sizes `2^(MIN + (MAX - MIN) * (i + 1/2) / count)`: log-uniform strata.
fn sizes(count: usize) -> impl Iterator<Item = usize> {
    (0..count).map(move |i| {
        let lg =
            SERVE_LOG2_MIN + (SERVE_LOG2_MAX - SERVE_LOG2_MIN) * (i as f64 + 0.5) / count as f64;
        lg.exp2().round() as usize
    })
}

/// Number of cycles and of nodes on cycles of `f`, by a sequential walk
/// independent of the library's decomposition.
fn count_cycles(f: &[u32]) -> (u64, u64) {
    // 0 = unvisited, 1 = on the current walk, 2 = done.
    let mut state = vec![0u8; f.len()];
    let (mut cycles, mut nodes) = (0, 0);
    let mut walk = Vec::new();
    for start in 0..f.len() {
        let mut x = start;
        while state[x] == 0 {
            state[x] = 1;
            walk.push(x);
            x = f[x] as usize;
        }
        if state[x] == 1 {
            cycles += 1;
            let mut y = x;
            loop {
                nodes += 1;
                y = f[y] as usize;
                if y == x {
                    break;
                }
            }
        }
        for &w in &walk {
            state[w] = 2;
        }
        walk.clear();
    }
    (cycles, nodes)
}

/// `f` conjugated by the rotation `x -> x + k (mod n)` of node ids.
fn conjugate(f: &[u32], k: usize) -> Vec<u32> {
    let n = f.len();
    (0..n)
        .map(|x| ((f[(x + n - k) % n] as usize + k) % n) as u32)
        .collect()
}

impl RequestSet {
    /// Generate and verify the bases for `stream`'s request mix.
    ///
    /// # Errors
    /// A base whose reference answer fails verification.
    pub fn new(stream: &Stream, seed: u64) -> Result<RequestSet, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_5e7e);
        let ctx = Ctx::sequential();
        let mut bases = Vec::new();
        let mut deck = Vec::new();
        let per_kind: Vec<usize> = stream
            .mix
            .iter()
            .map(|&(kind, _)| BASES_PER_FAMILY * families(stream, kind).len())
            .collect();
        let most = per_kind.iter().copied().max().unwrap_or(1);
        for (&(kind, weight), &count) in stream.mix.iter().zip(&per_kind) {
            let first = bases.len();
            for family in families(stream, kind) {
                for n in sizes(BASES_PER_FAMILY) {
                    bases.push(base(&ctx, kind, family, n, rng.next_u64())?);
                }
            }
            // Equal weight per kind regardless of its number of bases.
            for b in first..bases.len() {
                deck.extend(std::iter::repeat_n(b, weight as usize * most / count));
            }
        }
        Ok(RequestSet {
            bases,
            deck,
            rng,
            issued: Vec::new(),
            next_card: usize::MAX,
            next_salt: 1,
        })
    }

    /// Requests in one deal of the whole deck, repeats included: a segment
    /// of this many requests, started with [`RequestSet::new_deck`], holds
    /// every card exactly once.
    #[must_use]
    pub fn deck_requests(&self) -> usize {
        self.deck.len() * REPEAT_EVERY / (REPEAT_EVERY - 1)
    }

    /// Deal the next fresh request from a freshly shuffled deck.
    pub fn new_deck(&mut self) {
        self.next_card = usize::MAX;
    }

    /// The next `count` requests of the stream: every [`REPEAT_EVERY`]-th
    /// repeats an earlier request exactly, the rest are fresh inputs dealt
    /// from a shuffled deck, so every seed sees the same mix of kinds and
    /// sizes.
    pub fn take(&mut self, count: usize) -> Vec<Item> {
        (1..=count)
            .map(|j| {
                let item = if !self.issued.is_empty() && j % REPEAT_EVERY == 0 {
                    self.issued[self.rng.gen_range(0..self.issued.len())]
                } else {
                    if self.next_card >= self.deck.len() {
                        self.deck.shuffle(&mut self.rng);
                        self.next_card = 0;
                    }
                    let base = self.deck[self.next_card];
                    self.next_card += 1;
                    let salt = self.next_salt;
                    // Salts stay below 2^15 so `blocks ^ (salt << 16)` cannot
                    // collide for block labels below 2^16.
                    self.next_salt = self.next_salt % ((1 << 15) - 1) + 1;
                    Item { base, salt }
                };
                self.issued.push(item);
                item
            })
            .collect()
    }

    /// The wire request of `item`.
    #[must_use]
    pub fn request(&self, item: Item) -> ComputeRequest {
        let b = &self.bases[item.base];
        let salt = item.salt as usize;
        match b.kind {
            Kind::Partition | Kind::MinimizeDfa => {
                let blocks = b.blocks.iter().map(|&l| l ^ (item.salt << 16)).collect();
                if b.kind == Kind::Partition {
                    ComputeRequest::partition(b.f.clone(), blocks)
                } else {
                    ComputeRequest::minimize_dfa(b.f.clone(), blocks)
                }
            }
            Kind::Canonize => {
                ComputeRequest::canonize(sfcp_strings::rotation(&b.f, salt % b.f.len()))
            }
            Kind::Decompose => ComputeRequest::decompose(conjugate(&b.f, salt % b.f.len())),
        }
    }

    /// Whether `outcome` is the correct reply to `item`.
    #[must_use]
    pub fn check(&self, item: Item, outcome: &Result<Reply, ErrorReply>) -> bool {
        let Ok(reply) = outcome else {
            return false;
        };
        let b = &self.bases[item.base];
        match (&b.expected, &reply.payload) {
            (Expected::Labels(canonical), ReplyPayload::Labels(labels)) => {
                same_partition(labels, canonical)
            }
            (Expected::LeastRotation(least), ReplyPayload::Msp(start)) => {
                let s = sfcp_strings::rotation(&b.f, item.salt as usize % b.f.len());
                usize::try_from(*start)
                    .is_ok_and(|k| k < s.len() && sfcp_strings::rotation(&s, k) == *least)
            }
            (
                Expected::Cycles(cycles, nodes),
                ReplyPayload::Decomposition {
                    num_cycles,
                    num_cycle_nodes,
                    ..
                },
            ) => (*cycles, *nodes) == (*num_cycles, *num_cycle_nodes),
            _ => false,
        }
    }
}

/// Families of `kind`'s requests in `stream`.
fn families(stream: &Stream, kind: Kind) -> Vec<Family> {
    match kind {
        Kind::Partition => stream.partition_families.to_vec(),
        // A unary DFA: random transitions, two acceptance classes.
        Kind::MinimizeDfa => vec![Family::Random { blocks: 2 }],
        // `canonize` takes a string and `decompose` ignores the blocks.
        Kind::Canonize | Kind::Decompose => vec![Family::Random { blocks: 4 }],
    }
}

fn base(ctx: &Ctx, kind: Kind, family: Family, n: usize, seed: u64) -> Result<Base, String> {
    let inst = family.instance(n, seed);
    let f = inst.f().to_vec();
    let blocks = inst.blocks().to_vec();
    let (f, blocks, expected) = match kind {
        Kind::Partition | Kind::MinimizeDfa => {
            let r = Reference::new(ctx, inst, Algorithm::SequentialLinear)?;
            (f, blocks, Expected::Labels(r.canonical))
        }
        Kind::Canonize => {
            // The block labels of a random instance are a random string.
            let least = sfcp_strings::rotation(&blocks, sfcp_strings::booth_msp(&blocks));
            (blocks, Vec::new(), Expected::LeastRotation(least))
        }
        Kind::Decompose => {
            let (c, m) = count_cycles(&f);
            (f, Vec::new(), Expected::Cycles(c, m))
        }
    };
    Ok(Base {
        kind,
        f,
        blocks,
        expected,
    })
}

/// Outcome of one open-loop segment.
#[derive(Debug, Default)]
pub struct Segment {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency of each request from its due time, ms; failed requests are
    /// infinite.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent or due.
    pub attempted: u64,
    /// Typed errors, wrong answers, lost replies and transport failures.
    pub failed: u64,
    /// Whether each request was answered from the snapshot cache.
    pub hit: Vec<bool>,
    /// Replies received.
    pub replies: u64,
}

impl Segment {
    /// Median latency, ms.
    #[must_use]
    pub fn p50(&self) -> f64 {
        stats::percentile(&self.latency_ms, 50.0)
    }

    /// Replies answered from the snapshot cache.
    #[must_use]
    pub fn cached(&self) -> u64 {
        self.hit.iter().filter(|&&h| h).count() as u64
    }

    /// Append a later segment at the same rate.
    pub fn extend(&mut self, later: Segment) {
        self.latency_ms.extend(later.latency_ms);
        self.lag_ms.extend(later.lag_ms);
        self.hit.extend(later.hit);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.replies += later.replies;
    }

    /// 99th-percentile latency, ms.
    #[must_use]
    pub fn p99(&self) -> f64 {
        stats::percentile(&self.latency_ms, 99.0)
    }
}

/// Send `items` to `addr` on an open-loop schedule at `rate` per second over
/// one connection: one thread writes each request at its due time, this
/// thread reads replies as they come.  Latency runs from the due time, so a
/// stall also delays every request queued behind it.
#[must_use]
pub fn open_loop(addr: SocketAddr, set: &RequestSet, items: &[Item], rate: f64) -> Segment {
    let mut seg = Segment {
        rate,
        latency_ms: vec![f64::INFINITY; items.len()],
        hit: vec![false; items.len()],
        attempted: items.len() as u64,
        ..Segment::default()
    };
    let Ok((mut writer, mut reader)) = connect(addr) else {
        seg.failed = seg.attempted;
        return seg;
    };
    let start = Instant::now() + Duration::from_millis(2);
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let mut answered = vec![false; items.len()];
    let lags = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lags = Vec::with_capacity(items.len());
            for (j, &item) in items.iter().enumerate() {
                let at = due(j);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lags.push(at.elapsed().as_secs_f64() * 1e3);
                let frame = Request {
                    id: j as u64,
                    body: RequestBody::Compute(set.request(item)),
                }
                .encode();
                if write_frame(&mut writer, &frame).is_err() {
                    break;
                }
            }
            // Half-close so the server sees the end of the stream.
            let _ = writer.shutdown(std::net::Shutdown::Write);
            lags
        });
        while seg.replies < seg.attempted {
            let Ok(Some(frame)) = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) else {
                break;
            };
            let received = Instant::now();
            let Ok(response) = Response::decode(&frame) else {
                break;
            };
            let j = response.id as usize;
            if j >= items.len() || answered[j] {
                break;
            }
            answered[j] = true;
            seg.replies += 1;
            if set.check(items[j], &response.outcome) {
                seg.latency_ms[j] = received.duration_since(due(j)).as_secs_f64() * 1e3;
                seg.hit[j] = response.outcome.as_ref().is_ok_and(|r| r.cached);
            }
        }
        // Unblock a sender stuck on a dead connection, then collect it.
        let _ = reader.shutdown(std::net::Shutdown::Both);
        sender.join().unwrap_or_default()
    });
    seg.lag_ms = lags;
    seg.failed = seg.latency_ms.iter().filter(|l| l.is_infinite()).count() as u64;
    seg
}

/// Typical latency of a full solve, steady against the host's slow spells:
/// per base input, the fastest latency of its fresh (uncached) requests,
/// which a run spreads over its length; then the median of those over the
/// fresh requests, so each base weighs as often as it was served.
#[must_use]
pub fn best_per_base_ms(items: &[Item], seg: &Segment) -> f64 {
    let mut best: std::collections::HashMap<usize, (f64, usize)> = Default::default();
    for ((item, &ms), &hit) in items.iter().zip(&seg.latency_ms).zip(&seg.hit) {
        if !hit {
            let e = best.entry(item.base).or_insert((f64::INFINITY, 0));
            e.0 = e.0.min(ms);
            e.1 += 1;
        }
    }
    let weighted: Vec<f64> = best
        .values()
        .flat_map(|&(ms, count)| std::iter::repeat_n(ms, count))
        .collect();
    stats::median(&weighted)
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let reader = stream.try_clone()?;
    Ok((stream, reader))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SERVE_MIXED;

    #[test]
    fn sizes_are_log_uniform_strata() {
        let s: Vec<usize> = sizes(5).collect();
        assert_eq!(s, vec![1448, 2896, 5793, 11585, 23170]);
    }

    #[test]
    fn cycle_counts_and_conjugation() {
        let f = vec![1, 0, 3, 2, 2, 6, 6];
        assert_eq!(count_cycles(&f), (3, 5));
        assert_eq!(count_cycles(&conjugate(&f, 3)), (3, 5));
    }

    #[test]
    fn salted_requests_keep_their_answers_and_corruption_is_caught() {
        let mut set = RequestSet::new(&SERVE_MIXED, 3).unwrap();
        set.new_deck();
        let items = set.take(set.deck_requests());
        // One deal holds every card once, and every fourth request repeats.
        let mut dealt: Vec<usize> = (0..items.len())
            .filter(|j| (j + 1) % REPEAT_EVERY != 0)
            .map(|j| items[j].base)
            .collect();
        let mut deck = set.deck.clone();
        dealt.sort_unstable();
        deck.sort_unstable();
        assert_eq!(dealt, deck);
        let distinct = items.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(items.len() - distinct, items.len() / REPEAT_EVERY);
        let mut worker = sfcp_service::Worker::new(0, 64 << 20, Default::default(), false);
        for (j, &item) in items.iter().enumerate().take(40) {
            let response = worker.serve(j as u64, &set.request(item));
            assert!(set.check(item, &response.outcome), "item {item:?}");
            let mut corrupted = response.outcome.clone().unwrap();
            corrupted.payload = match corrupted.payload {
                ReplyPayload::Labels(mut l) => {
                    // Move one element into element 0's block.
                    let other = l.iter().position(|&x| x != l[0]).unwrap();
                    l[other] = l[0];
                    ReplyPayload::Labels(l)
                }
                ReplyPayload::Msp(k) => ReplyPayload::Msp(k + 1),
                ReplyPayload::Decomposition {
                    num_cycles,
                    num_cycle_nodes,
                    digest,
                } => ReplyPayload::Decomposition {
                    num_cycles: num_cycles + 1,
                    num_cycle_nodes,
                    digest,
                },
                other => other,
            };
            assert!(!set.check(item, &Ok(corrupted)), "item {item:?}");
        }
    }

    #[test]
    fn best_per_base_weighs_bases_by_fresh_requests() {
        let item = |base| Item { base, salt: 1 };
        let items = [item(0), item(0), item(0), item(1), item(1), item(2)];
        let seg = Segment {
            latency_ms: vec![5.0, 3.0, 0.1, 9.0, 8.0, 1.0],
            hit: vec![false, false, true, false, false, false],
            ..Segment::default()
        };
        // Fresh requests: base 0 twice (best 3), base 1 twice (best 8),
        // base 2 once (best 1); the cache hit is ignored.
        assert_eq!(best_per_base_ms(&items, &seg), 3.0);
        assert_eq!(seg.cached(), 1);
    }

    #[test]
    fn open_loop_counts_replies() {
        let mut set = RequestSet::new(&SERVE_MIXED, 1).unwrap();
        let server = sfcp_service::Server::start(sfcp_service::ServerConfig::default()).unwrap();
        let items = set.take(12);
        let seg = open_loop(server.addr(), &set, &items, SERVE_MIXED.offered_rps);
        assert_eq!((seg.attempted, seg.replies, seg.failed), (12, 12, 0));
        assert!(seg.latency_ms.iter().all(|l| l.is_finite()));
        server.shutdown();
    }
}
