//! Property sweep: the node-folded election must pick the *identical*
//! winner — same index, same MINLOC tie-break — as the naive pairwise
//! oracle, for every strategy, on every machine profile, across
//! irregular partition shapes and adversarial weight patterns.
//!
//! `elect_aggregator_fast` is allowed to evaluate folded costs in a
//! different floating-point order than the oracle only because it prunes
//! with a tolerance and replays survivors with the oracle's exact
//! arithmetic (same operands from per-partition node tables, same
//! summation order). This sweep is the evidence that the prune is
//! conservative enough and the replay exact: ties, cancellation-heavy
//! weights, and single-node partitions all land on the oracle's answer.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use tapioca::placement::{
    elect_aggregator, elect_aggregator_fast, elect_partitions, election_cost, election_costs,
    PartitionElection, PlacementStrategy,
};
use tapioca_topology::{
    cluster_profile, mira_profile, theta_profile, IoNodeId, NodeId, NodeMetricCache, Rank,
    TopologyProvider,
};

/// SplitMix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An irregular membership: a few clustered node runs plus scattered
/// stragglers, deduplicated and sorted (partitions are rank-sorted).
fn irregular_members(rng: &mut Rng, num_ranks: usize, target: usize) -> Vec<Rank> {
    let mut set = BTreeSet::new();
    while set.len() < target {
        if rng.below(3) > 0 {
            // clustered run of consecutive ranks
            let start = rng.below(num_ranks as u64) as usize;
            let run = 1 + rng.below(24) as usize;
            for r in start..(start + run).min(num_ranks) {
                set.insert(r);
                if set.len() >= target {
                    break;
                }
            }
        } else {
            set.insert(rng.below(num_ranks as u64) as usize);
        }
    }
    set.into_iter().collect()
}

/// Weight patterns chosen to stress the folded prune: exact ties,
/// random spreads, one member dominating its node's fold (maximum
/// cancellation in `W(node) - w_cand`), and mostly-zero sparsity.
fn weights_for(rng: &mut Rng, n: usize, pattern: usize) -> Vec<u64> {
    match pattern % 4 {
        0 => vec![1 << 20; n],
        1 => (0..n).map(|_| rng.below(64 * 1024 * 1024)).collect(),
        2 => {
            let mut w = vec![1u64; n];
            w[rng.below(n as u64) as usize] = 1 << 34;
            w
        }
        _ => (0..n).map(|_| if rng.below(5) == 0 { rng.below(1 << 22) } else { 0 }).collect(),
    }
}

fn strategies() -> Vec<PlacementStrategy> {
    vec![
        PlacementStrategy::TopologyAware,
        PlacementStrategy::RankOrder,
        PlacementStrategy::ShortestPathToIo,
        PlacementStrategy::WorstCase,
        PlacementStrategy::Random { seed: 0xfeed },
    ]
}

fn machines() -> Vec<(&'static str, Box<dyn TopologyProvider>)> {
    vec![
        ("mira", Box::new(mira_profile(512, 16).machine)),
        ("theta", Box::new(theta_profile(512, 16).machine)),
        ("cluster", Box::new(cluster_profile(128, 16).machine)),
    ]
}

#[test]
fn fast_election_matches_naive_oracle_everywhere() {
    let mut rng = Rng(0x7a91_0cc5);
    for (name, topo) in machines() {
        let topo = topo.as_ref();
        let num_ranks = topo.num_ranks();
        for strategy in strategies() {
            for case in 0..12usize {
                // sizes span sub-fold (< 8 members), one-node, and
                // multi-node shapes
                let target = match case % 4 {
                    0 => 1 + rng.below(7) as usize,
                    1 => topo.ranks_per_node().min(num_ranks),
                    _ => 16 + rng.below(113) as usize,
                };
                let members = irregular_members(&mut rng, num_ranks, target);
                let weights = weights_for(&mut rng, members.len(), case);
                let io = topo.io_nodes_for(&members).first().copied().unwrap_or(0);
                let part = case * 7 + 1;
                let naive = elect_aggregator(topo, &members, &weights, io, part, strategy);
                let fast = elect_aggregator_fast(topo, &members, &weights, io, part, strategy);
                assert_eq!(
                    fast, naive,
                    "winner mismatch: machine={name} strategy={strategy:?} case={case} \
                     members={} (fast={fast} naive={naive})",
                    members.len(),
                );
            }
        }
    }
}

#[test]
fn batched_elections_match_per_partition_oracle() {
    let mut rng = Rng(0xbead_5151);
    let profile = mira_profile(512, 16);
    let topo = &profile.machine;
    for strategy in strategies() {
        let shapes: Vec<(Vec<Rank>, Vec<u64>)> = (0..9usize)
            .map(|case| {
                let members = irregular_members(&mut rng, topo.num_ranks(), 8 + case * 13);
                let weights = weights_for(&mut rng, members.len(), case);
                (members, weights)
            })
            .collect();
        let parts: Vec<PartitionElection<'_>> = shapes
            .iter()
            .enumerate()
            .map(|(i, (m, w))| PartitionElection {
                members: m,
                weights: w,
                io: topo.io_nodes_for(m).first().copied().unwrap_or(0),
                partition_index: i,
            })
            .collect();
        let batched = elect_partitions(topo, &parts, strategy);
        for (p, &choice) in parts.iter().zip(&batched) {
            let naive = elect_aggregator(
                topo,
                p.members,
                p.weights,
                p.io,
                p.partition_index,
                strategy,
            );
            assert_eq!(
                choice, naive,
                "batch mismatch: strategy={strategy:?} partition={}",
                p.partition_index
            );
        }
    }
}

/// Enough total work (`sum of members`) to cross the internal
/// parallelism threshold, so the threaded fan-out path is exercised and
/// must still reproduce the oracle exactly.
#[test]
fn parallel_election_path_matches_oracle() {
    let mut rng = Rng(0x0dd_ba11);
    let profile = mira_profile(512, 16);
    let topo = &profile.machine;
    let shapes: Vec<(Vec<Rank>, Vec<u64>)> = (0..2usize)
        .map(|case| {
            let members = irregular_members(&mut rng, topo.num_ranks(), 1024);
            let weights = weights_for(&mut rng, members.len(), case + 1);
            (members, weights)
        })
        .collect();
    let parts: Vec<PartitionElection<'_>> = shapes
        .iter()
        .enumerate()
        .map(|(i, (m, w))| PartitionElection {
            members: m,
            weights: w,
            io: topo.io_nodes_for(m).first().copied().unwrap_or(0),
            partition_index: i,
        })
        .collect();
    // 2 * 1024 = 2,048 member slots, at the fan-out threshold.
    let batched = elect_partitions(topo, &parts, PlacementStrategy::TopologyAware);
    for (p, &choice) in parts.iter().zip(&batched) {
        let naive = elect_aggregator(
            topo,
            p.members,
            p.weights,
            p.io,
            p.partition_index,
            PlacementStrategy::TopologyAware,
        );
        assert_eq!(choice, naive, "parallel path mismatch at partition {}", p.partition_index);
    }
}

/// True ties: whole-node, uniform-weight partitions on Theta (`C2 = 0`,
/// dragonfly symmetry) and Pset-aligned IOR partitions on Mira give
/// many candidates bit-equal costs, so the MINLOC tie rule decides the
/// winner and the prune keeps most members alive for the exact replay.
#[test]
fn tie_heavy_partitions_match_oracle() {
    let theta = theta_profile(512, 16).machine;
    let mira = mira_profile(512, 16).machine;
    let mut shapes: Vec<(&str, &dyn TopologyProvider, Vec<Rank>)> = Vec::new();
    for (i, size) in [128usize, 256, 400, 512, 683].into_iter().enumerate() {
        // node-aligned starts, so every node but the last is whole
        let start = (1 + 37 * i) * 16;
        shapes.push(("theta", &theta, (start..start + size).collect()));
    }
    let pset = 128 * 16;
    for (pset_index, size, offset) in [(0, 128, 0), (1, 128, 3), (2, 256, 1), (3, 256, 7)] {
        let start: Rank = pset_index * pset + offset * size;
        shapes.push(("mira", &mira, (start..start + size).collect()));
    }
    for strategy in [PlacementStrategy::TopologyAware, PlacementStrategy::WorstCase] {
        for (name, topo, members) in &shapes {
            let weights = vec![4u64 << 20; members.len()];
            let io = topo.io_nodes_for(members)[0];
            let naive = elect_aggregator(*topo, members, &weights, io, 0, strategy);
            let fast = elect_aggregator_fast(*topo, members, &weights, io, 0, strategy);
            assert_eq!(
                fast,
                naive,
                "winner mismatch: machine={name} strategy={strategy:?} members={} \
                 starting at rank {}",
                members.len(),
                members[0],
            );
        }
    }
}

/// A provider wrapper that counts the rank-pair metric queries.
struct Counting<'a> {
    inner: &'a dyn TopologyProvider,
    distance: AtomicUsize,
    bandwidth: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn TopologyProvider) -> Self {
        Self { inner, distance: AtomicUsize::new(0), bandwidth: AtomicUsize::new(0) }
    }

    /// `(distance, bandwidth)` queries since the last call.
    fn take(&self) -> (usize, usize) {
        (self.distance.swap(0, Ordering::Relaxed), self.bandwidth.swap(0, Ordering::Relaxed))
    }
}

impl TopologyProvider for Counting<'_> {
    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    fn ranks_per_node(&self) -> usize {
        self.inner.ranks_per_node()
    }

    fn node_of_rank(&self, rank: Rank) -> NodeId {
        self.inner.node_of_rank(rank)
    }

    fn network_dimensions(&self) -> usize {
        self.inner.network_dimensions()
    }

    fn rank_to_coordinates(&self, rank: Rank) -> Vec<usize> {
        self.inner.rank_to_coordinates(rank)
    }

    fn latency(&self) -> f64 {
        self.inner.latency()
    }

    fn distance_between_ranks(&self, src: Rank, dst: Rank) -> u32 {
        self.distance.fetch_add(1, Ordering::Relaxed);
        self.inner.distance_between_ranks(src, dst)
    }

    fn bandwidth_between_ranks(&self, src: Rank, dst: Rank) -> f64 {
        self.bandwidth.fetch_add(1, Ordering::Relaxed);
        self.inner.bandwidth_between_ranks(src, dst)
    }

    fn io_nodes_for(&self, ranks: &[Rank]) -> Vec<IoNodeId> {
        self.inner.io_nodes_for(ranks)
    }

    fn distance_to_io_node(&self, rank: Rank, io: IoNodeId) -> Option<u32> {
        self.inner.distance_to_io_node(rank, io)
    }

    fn bandwidth_to_io_node(&self, rank: Rank, io: IoNodeId) -> Option<f64> {
        self.inner.bandwidth_to_io_node(rank, io)
    }
}

/// The folded election and the all-candidate cost evaluation issue at
/// most one distance and one bandwidth query per distinct (directed)
/// node pair — never per survivor and member — yet agree with the
/// oracle bit for bit.
#[test]
fn folded_election_queries_each_node_pair_at_most_once() {
    let theta = theta_profile(512, 16).machine;
    let mira = mira_profile(512, 16).machine;
    let shapes: Vec<(&str, &dyn TopologyProvider, Vec<Rank>)> = vec![
        ("theta", &theta, (16..16 + 683).collect()),
        ("mira", &mira, (2048..2048 + 256).collect()),
    ];
    for strategy in [PlacementStrategy::TopologyAware, PlacementStrategy::WorstCase] {
        for (name, topo, members) in &shapes {
            let weights = vec![1u64 << 20; members.len()];
            let io = topo.io_nodes_for(members)[0];
            let nodes: BTreeSet<NodeId> = members.iter().map(|&m| topo.node_of_rank(m)).collect();
            let pairs = nodes.len() * nodes.len();
            let counting = Counting::new(*topo);

            let fast = elect_aggregator_fast(&counting, members, &weights, io, 0, strategy);
            let (d, b) = counting.take();
            assert!(d <= pairs && b <= pairs, "{name} {strategy:?}: {d}/{b} queries > {pairs}");
            assert_eq!(fast, elect_aggregator(*topo, members, &weights, io, 0, strategy));

            let costs = election_costs(
                &counting,
                &mut NodeMetricCache::new(),
                members,
                &weights,
                io,
                0,
                strategy,
            );
            let (d, b) = counting.take();
            assert!(d <= pairs && b <= pairs, "{name} {strategy:?}: {d}/{b} queries > {pairs}");
            for (c, cost) in costs.iter().enumerate() {
                let oracle = election_cost(*topo, members, &weights, io, 0, strategy, c);
                assert_eq!(cost.to_bits(), oracle.to_bits(), "{name} {strategy:?} candidate {c}");
            }
        }
    }
}
