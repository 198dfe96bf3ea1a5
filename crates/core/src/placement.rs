//! Topology-aware aggregator placement (paper Sec. IV-B).
//!
//! For each partition, every candidate process `A` evaluates
//!
//! ```text
//! C1 = sum over i in Vc, i != A of ( l * d(i, A) + omega(i, A) / B(i -> A) )
//! C2 = l * d(A, IO) + omega(A, IO) / B(A -> IO)        (0 when IO unknown)
//! TopoAware(A) = C1 + C2
//! ```
//!
//! and the process with the minimal cost is elected with an
//! `MPI_Allreduce(MPI_MINLOC)`. `omega(i, A)` is the number of bytes rank
//! `i` contributes to the partition — known exactly thanks to the
//! declarations of `TAPIOCA_Init`. On Theta the vendor exposes no I/O
//! node placement, so `C2 = 0` there (the paper's own fallback).
//!
//! Besides the paper's strategy this module implements the baselines and
//! ablations compared in the benches: rank-order (MPICH-like), shortest
//! path to storage only, worst-case, and seeded random placement.

use std::collections::HashMap;

use tapioca_topology::{IoNodeId, NodeId, NodeMetricCache, Rank, TopologyProvider};

/// Aggregator election strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementStrategy {
    /// The paper's cost model: minimize `C1 + C2`.
    TopologyAware,
    /// First member in rank order (what generic MPICH does after the
    /// bridge node, and the natural "no topology information" default).
    RankOrder,
    /// Minimize distance to the I/O node only (ignores the aggregation
    /// phase) — a classic heuristic the paper's model subsumes.
    ShortestPathToIo,
    /// Maximize `C1 + C2` — adversarial ablation (upper bound on harm).
    WorstCase,
    /// Uniformly random member from a seeded generator (ablation).
    Random {
        /// Seed; elections use `seed ^ partition_index`.
        seed: u64,
    },
}

/// The aggregation cost `C1` of candidate `members[cand]`.
///
/// `weights[i]` is `omega(members[i], A)` — bytes member `i` sends into
/// the partition's buffers over the whole operation.
pub fn aggregation_cost(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    cand: usize,
) -> f64 {
    let l = topo.latency();
    let a = members[cand];
    let mut c1 = 0.0;
    for (i, (&m, &w)) in members.iter().zip(weights).enumerate() {
        if i == cand {
            continue;
        }
        let d = topo.distance_between_ranks(m, a) as f64;
        let bw = topo.bandwidth_between_ranks(m, a);
        c1 += l * d + w as f64 / bw;
    }
    c1
}

/// The I/O phase cost `C2` of a candidate, or 0 when the machine cannot
/// locate its I/O nodes (Theta).
pub fn io_cost(
    topo: &dyn TopologyProvider,
    cand_rank: Rank,
    io: IoNodeId,
    total_bytes: u64,
) -> f64 {
    match (topo.distance_to_io_node(cand_rank, io), topo.bandwidth_to_io_node(cand_rank, io)) {
        (Some(d), Some(bw)) => topo.latency() * d as f64 + total_bytes as f64 / bw,
        _ => 0.0,
    }
}

/// The full objective `TopoAware(A) = C1 + C2` for one candidate.
pub fn topo_aware_cost(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    cand: usize,
) -> f64 {
    let total: u64 = weights.iter().sum();
    aggregation_cost(topo, members, weights, cand) + io_cost(topo, members[cand], io, total)
}

/// The cost value a member contributes to the MINLOC election under a
/// strategy. Lower wins; ties resolve to the lower member index (MPI
/// MINLOC semantics), which every strategy exploits for determinism.
pub fn election_cost(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
    cand: usize,
) -> f64 {
    match strategy {
        PlacementStrategy::TopologyAware => topo_aware_cost(topo, members, weights, io, cand),
        PlacementStrategy::RankOrder => cand as f64,
        PlacementStrategy::ShortestPathToIo => topo
            .distance_to_io_node(members[cand], io)
            .map(|d| d as f64)
            .unwrap_or(0.0),
        PlacementStrategy::WorstCase => -topo_aware_cost(topo, members, weights, io, cand),
        PlacementStrategy::Random { seed } => {
            // SplitMix64 over (seed ^ partition, candidate): same value
            // computed by every member, so the election is consistent.
            let mut x = (seed ^ partition_index as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(cand as u64);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 11) as f64
        }
    }
}

/// Centralized election (simulation mode): evaluate every candidate and
/// return the winner's index into `members`. Mirrors exactly what the
/// distributed MINLOC election of thread mode computes.
pub fn elect_aggregator(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
) -> usize {
    assert!(!members.is_empty(), "cannot elect from an empty partition");
    assert_eq!(members.len(), weights.len());
    let mut best = (f64::INFINITY, usize::MAX);
    for cand in 0..members.len() {
        let c = election_cost(topo, members, weights, io, partition_index, strategy, cand);
        if c < best.0 || (c == best.0 && cand < best.1) {
            best = (c, cand);
        }
    }
    best.1
}

/// Node-folded election: same winner as [`elect_aggregator`], computed
/// in O(nodes²) topology queries instead of O(P²).
///
/// Under the block rank mapping (see
/// [`TopologyProvider::ranks_per_node`]) both `d(i, A)` and `B(i -> A)`
/// depend only on `node(i)` and `node(A)`, so every metric the election
/// needs is fetched once per node pair (memoized in a
/// [`NodeMetricCache`]) into dense per-partition node tables, and the
/// member sum of `C1` folds into a node sum over per-node member counts
/// and weight totals. The node-only assumption of the cache carries both
/// steps below.
///
/// Folding reassociates the floating-point sum, so a folded cost can
/// differ from the oracle's pairwise sum by a few ulps — enough to flip
/// a MINLOC tie. To stay *bit-identical* to the oracle, the folded costs
/// are only used to prune: every candidate whose folded cost window
/// (`± fold_tolerance`, a rigorous bound on the divergence between the
/// two summation orders) overlaps the best window survives, and the
/// survivors are replayed exactly from the tables: the same f64
/// operands and operations as [`aggregation_cost`] + [`io_cost`], in the
/// same order — one sequential sum from `0.0` per candidate (a lane),
/// over the members in order, skipping the candidate itself. The winner
/// is then chosen among the survivors with oracle MINLOC semantics. The
/// true winner always survives the prune and its replayed cost is the
/// oracle's to the bit, so the result is the oracle's (the property
/// sweeps in `tests/placement_equivalence.rs` exercise this across
/// strategies, profiles, partition shapes and true ties).
pub fn elect_aggregator_fast(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
) -> usize {
    let mut cache = NodeMetricCache::new();
    elect_aggregator_cached(topo, &mut cache, members, weights, io, partition_index, strategy)
}

/// [`elect_aggregator_fast`] with a caller-owned metric cache, so
/// repeated elections on the same machine (e.g. every partition of a
/// run) share node-pair metrics. The cache must only ever be used with
/// one topology object (clear it when switching machines).
pub fn elect_aggregator_cached(
    topo: &dyn TopologyProvider,
    cache: &mut NodeMetricCache,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
) -> usize {
    assert!(!members.is_empty(), "cannot elect from an empty partition");
    assert_eq!(members.len(), weights.len());
    match strategy {
        // Constant under MINLOC: member 0 always has the lowest cost.
        PlacementStrategy::RankOrder => 0,
        // Pure integer hashing, already O(P); replay the oracle exactly.
        PlacementStrategy::Random { .. } => {
            elect_aggregator(topo, members, weights, io, partition_index, strategy)
        }
        // Node-level distance only: u32 -> f64 is exact, so the cached
        // per-node value *is* the oracle's cost and the ascending scan
        // with strict `<` reproduces MINLOC ties directly.
        PlacementStrategy::ShortestPathToIo => {
            // Machines that expose no I/O node placement (Theta) answer
            // `None` for every member, making every oracle cost 0.0 —
            // member 0's cost is then a global minimum (distances are
            // nonnegative) and MINLOC ties resolve to the lowest index,
            // so the winner is index 0 even on mixed topologies. One
            // probe replaces the per-member cache walk the oracle's
            // trivial loop was beating.
            if topo.distance_to_io_node(members[0], io).is_none() {
                return 0;
            }
            // Below the fold threshold the pairwise oracle is already
            // cheap and per-member cache lookups would dominate.
            if members.len() < FOLD_MIN_MEMBERS {
                return elect_aggregator(topo, members, weights, io, partition_index, strategy);
            }
            let mut best = (f64::INFINITY, usize::MAX);
            for (i, &m) in members.iter().enumerate() {
                let node = topo.node_of_rank(m);
                let c = cache.io(topo, node, io).dist.map(|d| d as f64).unwrap_or(0.0);
                if c < best.0 {
                    best = (c, i);
                }
            }
            best.1
        }
        PlacementStrategy::TopologyAware | PlacementStrategy::WorstCase => {
            elect_folded(topo, cache, members, weights, io, partition_index, strategy)
        }
    }
}

/// Below this member count the pairwise oracle is already cheap and the
/// fold bookkeeping would dominate.
const FOLD_MIN_MEMBERS: usize = 8;

/// Upper bound on `|oracle_cost - folded_cost|` for one candidate.
///
/// Both evaluations sum the same `p`-ish positive real terms (`C2` is
/// even computed with identical operations); sequential f64 summation of
/// `n` terms is within `n * eps` relative error of the real value, so
/// the two orders diverge by at most a small multiple of
/// `p * eps * magnitude`, where `magnitude` bounds the sum of absolute
/// term values (not the result — the folded per-candidate cost subtracts
/// the candidate's own weight from its node total, and that cancellation
/// keeps *absolute* error bounded by the term magnitudes even when the
/// result is tiny). The factor 8 is slack over the textbook bound.
fn fold_tolerance(p: usize, magnitude: f64) -> f64 {
    8.0 * (p as f64 + 16.0) * f64::EPSILON * magnitude
}

fn elect_folded(
    topo: &dyn TopologyProvider,
    cache: &mut NodeMetricCache,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
) -> usize {
    let p = members.len();
    if p < FOLD_MIN_MEMBERS {
        return elect_aggregator(topo, members, weights, io, partition_index, strategy);
    }
    let tables = NodeTables::build(topo, cache, members, weights, io);
    let nn = tables.nn;

    // Per candidate node: cross-node C1 contribution and intra-node
    // bandwidth, folded over per-node member counts and weight totals.
    let mut cross = vec![0.0f64; nn];
    for (s, acc) in cross.iter_mut().enumerate() {
        for t in (0..nn).filter(|&t| t != s) {
            // Members on node `t` sending to a candidate on node `s`
            // (directed, matching `B(i -> A)`).
            let e = t * nn + s;
            *acc += tables.count[t] * (tables.l * tables.dist[e]) + tables.w_sum[t] / tables.bw[e];
        }
    }

    // Folded signed cost per candidate, and the tightest upper bound on
    // any candidate's cost window.
    let worst = matches!(strategy, PlacementStrategy::WorstCase);
    let sign = if worst { -1.0 } else { 1.0 };
    let mut folded: Vec<f64> = Vec::with_capacity(p);
    let mut tol: Vec<f64> = Vec::with_capacity(p);
    let mut best_upper = f64::INFINITY;
    for (i, &w) in weights.iter().enumerate() {
        let s = tables.member_slot[i];
        let intra_bw = tables.bw[s * nn + s];
        let (w_sum, c2) = (tables.w_sum[s], tables.c2[s]);
        let f = cross[s] + (w_sum - w as f64) / intra_bw + c2;
        let magnitude = cross[s] + w_sum / intra_bw + c2;
        let d = fold_tolerance(p, magnitude);
        let fs = sign * f;
        if fs + d < best_upper {
            best_upper = fs + d;
        }
        folded.push(fs);
        tol.push(d);
    }

    // Prune, then replay the oracle's arithmetic on the survivors. The
    // oracle winner's window always overlaps `best_upper`, so it is in
    // the survivor set and the ascending MINLOC scan returns it.
    let survivors: Vec<usize> = (0..p).filter(|&i| folded[i] - tol[i] <= best_upper).collect();
    let costs = tables.exact_costs(weights, &survivors, worst);
    let mut best = (f64::INFINITY, usize::MAX);
    for (&i, &c) in survivors.iter().zip(&costs) {
        if c < best.0 || (c == best.0 && i < best.1) {
            best = (c, i);
        }
    }
    best.1
}

/// Every member's [`election_cost`], bit for bit, in member order.
///
/// The topology-aware strategies (`TopologyAware`, `WorstCase`) read
/// their metrics from the partition's node tables — one topology query
/// pair per distinct node pair, memoized in `cache` — instead of the
/// O(P) queries per candidate the oracle makes; the other strategies
/// are O(1) per candidate and call [`election_cost`] directly. Used for
/// the standby of a crashed aggregator, which needs every candidate's
/// exact cost. The cache must only ever be used with one topology.
pub fn election_costs(
    topo: &dyn TopologyProvider,
    cache: &mut NodeMetricCache,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
) -> Vec<f64> {
    assert_eq!(members.len(), weights.len());
    match strategy {
        PlacementStrategy::TopologyAware | PlacementStrategy::WorstCase => {
            let all: Vec<usize> = (0..members.len()).collect();
            let worst = matches!(strategy, PlacementStrategy::WorstCase);
            NodeTables::build(topo, cache, members, weights, io).exact_costs(weights, &all, worst)
        }
        _ => (0..members.len())
            .map(|c| election_cost(topo, members, weights, io, partition_index, strategy, c))
            .collect(),
    }
}

/// One partition's node-level metrics, dense and slot-indexed: members
/// are grouped by node (slots numbered in order of first appearance),
/// and every `(t, s)` node-pair metric and per-node `C2` is fetched
/// once through the [`NodeMetricCache`].
struct NodeTables {
    /// Latency `l` of the machine.
    l: f64,
    /// Number of distinct nodes (slots).
    nn: usize,
    /// Node slot of each member, in member order.
    member_slot: Vec<usize>,
    /// Members per slot.
    count: Vec<f64>,
    /// Weight total per slot.
    w_sum: Vec<f64>,
    /// `d(t -> s)` as f64, at `t * nn + s`.
    dist: Vec<f64>,
    /// `B(t -> s)`, at `t * nn + s`.
    bw: Vec<f64>,
    /// `C2` of a candidate on each slot.
    c2: Vec<f64>,
}

impl NodeTables {
    fn build(
        topo: &dyn TopologyProvider,
        cache: &mut NodeMetricCache,
        members: &[Rank],
        weights: &[u64],
        io: IoNodeId,
    ) -> Self {
        let mut node_slot: HashMap<NodeId, usize> = HashMap::new();
        let mut slots: Vec<NodeId> = Vec::new();
        let mut count: Vec<f64> = Vec::new();
        let mut w_sum: Vec<f64> = Vec::new();
        let mut member_slot: Vec<usize> = Vec::with_capacity(members.len());
        for (&m, &w) in members.iter().zip(weights) {
            let node = topo.node_of_rank(m);
            let s = *node_slot.entry(node).or_insert_with(|| {
                slots.push(node);
                count.push(0.0);
                w_sum.push(0.0);
                slots.len() - 1
            });
            member_slot.push(s);
            count[s] += 1.0;
            w_sum[s] += w as f64;
        }
        let nn = slots.len();
        let mut dist = Vec::with_capacity(nn * nn);
        let mut bw = Vec::with_capacity(nn * nn);
        for &t in &slots {
            for &s in &slots {
                let pm = cache.pair(topo, t, s);
                dist.push(pm.dist as f64);
                bw.push(pm.bw);
            }
        }
        // The same operations `io_cost` performs, on the same operands.
        let l = topo.latency();
        let total: u64 = weights.iter().sum();
        let c2 = slots
            .iter()
            .map(|&s| {
                let im = cache.io(topo, s, io);
                match (im.dist, im.bw) {
                    (Some(d), Some(bw)) => l * d as f64 + total as f64 / bw,
                    _ => 0.0,
                }
            })
            .collect();
        NodeTables { l, nn, member_slot, count, w_sum, dist, bw, c2 }
    }

    /// The exact signed cost of each candidate in `cands` (ascending,
    /// distinct member indices), parallel to `cands`.
    ///
    /// Bit-identical to [`election_cost`]: for a candidate on slot `s`
    /// the term of member `i` is `l * d + w_i / B` with the oracle's
    /// operands (read from the tables), and `C1` is one left-to-right
    /// sum from `0.0` over the members in order, skipping the candidate
    /// itself — the order of [`aggregation_cost`]. Candidates sharing a
    /// slot share the term vector and are summed together, one lane
    /// each; then `C2` is added and `WorstCase` negates.
    fn exact_costs(&self, weights: &[u64], cands: &[usize], worst: bool) -> Vec<f64> {
        let nn = self.nn;
        let mut by_slot: Vec<Vec<usize>> = vec![Vec::new(); nn];
        for (k, &c) in cands.iter().enumerate() {
            by_slot[self.member_slot[c]].push(k);
        }
        let mut costs = vec![0.0f64; cands.len()];
        let mut term = vec![0.0f64; weights.len()];
        let mut lanes: Vec<f64> = Vec::new();
        for (s, ks) in by_slot.iter().enumerate().filter(|(_, ks)| !ks.is_empty()) {
            for ((t, &w), &ms) in term.iter_mut().zip(weights).zip(&self.member_slot) {
                let e = ms * nn + s;
                *t = self.l * self.dist[e] + w as f64 / self.bw[e];
            }
            lanes.clear();
            lanes.resize(ks.len(), 0.0);
            // `own` walks the lanes' own member indices, ascending.
            let mut own = 0;
            for (i, &t) in term.iter().enumerate() {
                if ks.get(own).is_some_and(|&k| cands[k] == i) {
                    for (j, a) in lanes.iter_mut().enumerate() {
                        if j != own {
                            *a += t;
                        }
                    }
                    own += 1;
                } else {
                    for a in lanes.iter_mut() {
                        *a += t;
                    }
                }
            }
            for (&k, &c1) in ks.iter().zip(&lanes) {
                let c = c1 + self.c2[s];
                costs[k] = if worst { -c } else { c };
            }
        }
        costs
    }
}

/// One partition's election inputs, borrowed from the schedule.
#[derive(Debug, Clone, Copy)]
pub struct PartitionElection<'a> {
    /// Global ranks of the partition members.
    pub members: &'a [Rank],
    /// Bytes each member contributes (`omega`), parallel to `members`.
    pub weights: &'a [u64],
    /// The I/O node serving this partition's file region.
    pub io: IoNodeId,
    /// Partition index (seeds the `Random` strategy).
    pub partition_index: usize,
}

/// Member slots (`sum of members`) from which a batch of elections is
/// worth fanning out across threads. Measured on a 2-vCPU host with
/// the paper-scale shapes (Mira IOR, 128-member partitions; Theta HACC,
/// 683-member partitions): fanned-out and serial batches broke even
/// near 1,024 slots (~0.4 ms serial), and at 2,048 the fan-out was
/// already ~1.3x faster; whole runs (32,768 and 65,536 slots) gained
/// 1.6–1.9x.
const PARALLEL_ELECTION_WORK: usize = 1 << 11;

/// Elect aggregators for a batch of independent partitions using the
/// fast path, sharing one metric cache when run serially and fanning
/// out across std threads (each with its own cache) when the batch is
/// large enough to amortize spawning. Returns one winner index (into
/// that partition's `members`) per input, in order.
pub fn elect_partitions(
    topo: &dyn TopologyProvider,
    parts: &[PartitionElection<'_>],
    strategy: PlacementStrategy,
) -> Vec<usize> {
    let elect_chunk = |chunk: &[PartitionElection<'_>]| {
        let mut cache = NodeMetricCache::new();
        chunk
            .iter()
            .map(|p| {
                elect_aggregator_cached(
                    topo,
                    &mut cache,
                    p.members,
                    p.weights,
                    p.io,
                    p.partition_index,
                    strategy,
                )
            })
            .collect::<Vec<usize>>()
    };
    let work: usize = parts.iter().map(|p| p.members.len()).sum();
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    if parts.len() < 2 || threads < 2 || work < PARALLEL_ELECTION_WORK {
        return elect_chunk(parts);
    }
    let chunk = parts.len().div_ceil(threads.min(parts.len()));
    std::thread::scope(|s| {
        let elect_chunk = &elect_chunk;
        let handles: Vec<_> =
            parts.chunks(chunk).map(|ch| s.spawn(move || elect_chunk(ch))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("election worker panicked"))
            .collect()
    })
}

/// Fallback topology for thread-mode runs that have no machine model:
/// every pair of distinct ranks is 1 hop apart at a uniform bandwidth,
/// and I/O node placement is unknown (`C2 = 0`). Under this provider the
/// topology-aware election degenerates to "any member" (lowest rank via
/// MINLOC ties), which is the correct behaviour with zero information.
#[derive(Debug, Clone)]
pub struct UniformTopology {
    /// Number of ranks.
    pub num_ranks: usize,
}

impl TopologyProvider for UniformTopology {
    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn ranks_per_node(&self) -> usize {
        1
    }

    fn network_dimensions(&self) -> usize {
        1
    }

    fn rank_to_coordinates(&self, rank: Rank) -> Vec<usize> {
        vec![rank]
    }

    fn latency(&self) -> f64 {
        1e-6
    }

    fn distance_between_ranks(&self, src: Rank, dst: Rank) -> u32 {
        u32::from(src != dst)
    }

    fn bandwidth_between_ranks(&self, _src: Rank, _dst: Rank) -> f64 {
        1e9
    }

    fn io_nodes_for(&self, _ranks: &[Rank]) -> Vec<IoNodeId> {
        vec![0]
    }

    fn distance_to_io_node(&self, _rank: Rank, _io: IoNodeId) -> Option<u32> {
        None
    }

    fn bandwidth_to_io_node(&self, _rank: Rank, _io: IoNodeId) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca_topology::{mira_profile, theta_profile, TopologyProvider};

    fn mira() -> impl TopologyProvider {
        mira_profile(512, 16).machine
    }

    #[test]
    fn c1_is_zero_for_sole_member() {
        let m = mira();
        assert_eq!(aggregation_cost(&m, &[5], &[100], 0), 0.0);
    }

    #[test]
    fn c1_grows_with_distance() {
        let m = mira();
        // members on nodes 0 and 50: candidate far from the heavy
        // producer pays more.
        let members = [0, 50 * 16, 100 * 16];
        let weights = [1_000_000, 1_000_000, 1_000_000];
        let c_near = aggregation_cost(&m, &members, &weights, 1);
        // compare against a candidate co-located with member 0
        let c_self = aggregation_cost(&m, &members, &weights, 0);
        assert!(c_near > 0.0 && c_self > 0.0);
    }

    #[test]
    fn c2_zero_on_theta() {
        let t = theta_profile(128, 16).machine;
        assert_eq!(io_cost(&t, 0, 0, 1 << 30), 0.0);
    }

    #[test]
    fn c2_positive_on_mira() {
        let m = mira();
        let c = io_cost(&m, 77, 0, 1 << 30);
        assert!(c > 0.0);
        // a rank on the bridge node has lower C2 than a distant one
        let bridge = io_cost(&m, 0, 0, 1 << 30);
        assert!(bridge <= c);
    }

    #[test]
    fn topology_aware_beats_rank_order_on_cost() {
        let m = mira();
        // members spread over one Pset, equal weights
        let members: Vec<usize> = (0..16).map(|i| i * 8 * 16).collect();
        let weights = vec![16_000_000u64; members.len()];
        let ta = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::TopologyAware);
        let ro = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::RankOrder);
        assert_eq!(ro, 0);
        let cost_ta = topo_aware_cost(&m, &members, &weights, 0, ta);
        let cost_ro = topo_aware_cost(&m, &members, &weights, 0, ro);
        assert!(cost_ta <= cost_ro, "elected cost {cost_ta} must be <= rank-order {cost_ro}");
    }

    #[test]
    fn worst_case_maximizes() {
        let m = mira();
        let members: Vec<usize> = (0..8).map(|i| i * 60 * 16).collect();
        let weights = vec![1_000_000u64; 8];
        let best = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::TopologyAware);
        let worst = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::WorstCase);
        let cb = topo_aware_cost(&m, &members, &weights, 0, best);
        let cw = topo_aware_cost(&m, &members, &weights, 0, worst);
        assert!(cw >= cb);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_partition() {
        let m = mira();
        let members: Vec<usize> = (0..10).collect();
        let weights = vec![1u64; 10];
        let a = elect_aggregator(&m, &members, &weights, 0, 3, PlacementStrategy::Random { seed: 42 });
        let b = elect_aggregator(&m, &members, &weights, 0, 3, PlacementStrategy::Random { seed: 42 });
        assert_eq!(a, b);
        // different partitions usually differ (not guaranteed, but with
        // 10 members collisions across 8 partitions are unlikely to all match)
        let picks: Vec<usize> = (0..8)
            .map(|p| elect_aggregator(&m, &members, &weights, 0, p, PlacementStrategy::Random { seed: 42 }))
            .collect();
        assert!(picks.iter().any(|&x| x != picks[0]));
    }

    #[test]
    fn shortest_path_prefers_bridge_nodes() {
        let m = mira();
        // include a rank on bridge node 0 (rank 0) and distant ranks
        let members = vec![0usize, 40 * 16, 90 * 16];
        let weights = vec![1u64; 3];
        let w = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::ShortestPathToIo);
        assert_eq!(w, 0);
    }

    #[test]
    #[should_panic(expected = "empty partition")]
    fn empty_members_panics() {
        let m = mira();
        elect_aggregator(&m, &[], &[], 0, 0, PlacementStrategy::TopologyAware);
    }
}
