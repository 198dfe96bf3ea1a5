//! Simulator workloads: `SimSession::build` / `run_epoch` at paper
//! scale, and the build decomposed into schedule, election and lowering.

use std::time::{Duration, Instant};

use tapioca::placement::{elect_partitions, PartitionElection};
use tapioca::schedule::{compute_schedule, Schedule, ScheduleParams};
use tapioca::sim_exec::{CollectiveSpec, SimReport, SimSession, StorageConfig};
use tapioca::stats::schedule_stats;
use tapioca::TapiocaConfig;
use tapioca_pfs::AccessMode;
use tapioca_topology::{MachineProfile, TopologyProvider};
use tapioca_trace::Tracer;

/// One simulated collective: machine, storage model, the write spec
/// and the two settings a workload may change from the default config.
#[derive(Debug, Clone)]
pub struct SimShape {
    pub profile: MachineProfile,
    pub storage: StorageConfig,
    pub spec: CollectiveSpec,
    pub aggregators: usize,
    pub buffer: u64,
}

impl SimShape {
    pub fn cfg(&self) -> TapiocaConfig {
        TapiocaConfig {
            num_aggregators: self.aggregators,
            buffer_size: self.buffer,
            ..Default::default()
        }
    }

    pub fn declared_bytes(&self) -> u64 {
        self.spec
            .groups
            .iter()
            .flat_map(|g| g.decls.iter().flatten())
            .map(|d| d.len)
            .sum()
    }

    pub fn read_spec(&self) -> CollectiveSpec {
        CollectiveSpec {
            mode: AccessMode::Read,
            ..self.spec.clone()
        }
    }

    fn params(&self) -> ScheduleParams {
        ScheduleParams {
            num_aggregators: self.aggregators,
            buffer_size: self.buffer,
            align_to_buffer: true,
        }
    }

    /// `compute_schedule` for every file group.
    pub fn schedules(&self) -> Vec<Schedule> {
        self.spec
            .groups
            .iter()
            .map(|g| compute_schedule(&g.decls, self.params()))
            .collect()
    }

    /// `elect_partitions` over every group's partitions, with the same
    /// inputs the simulator derives: members as global ranks, declared
    /// bytes as weights, the group's first I/O node.
    pub fn elect(&self, scheds: &[Schedule]) -> usize {
        let machine = &self.profile.machine;
        let strategy = self.cfg().strategy;
        let mut elected = 0;
        for (g, sched) in self.spec.groups.iter().zip(scheds) {
            let io = machine.io_nodes_for(&g.ranks).first().copied().unwrap_or(0);
            let members: Vec<Vec<usize>> = sched
                .partitions
                .iter()
                .map(|p| p.members.iter().map(|&m| g.ranks[m]).collect())
                .collect();
            let parts: Vec<PartitionElection<'_>> = sched
                .partitions
                .iter()
                .zip(&members)
                .map(|(p, m)| PartitionElection {
                    members: m,
                    weights: &p.member_bytes,
                    io,
                    partition_index: p.index,
                })
                .collect();
            elected += std::hint::black_box(elect_partitions(machine, &parts, strategy)).len();
        }
        elected
    }
}

/// Schedule statistics over all groups: (partitions, rounds, flush
/// segments, worst load imbalance).
pub fn schedule_summary(scheds: &[Schedule]) -> (usize, usize, usize, f64) {
    let mut out = (0, 0, 0, 0.0f64);
    for s in scheds {
        let st = schedule_stats(s);
        out.0 += s.partitions.len();
        out.1 += st.total_rounds;
        out.2 += st.flush_segments;
        out.3 = out.3.max(st.load_imbalance);
    }
    out
}

/// Whether two reports of the same session are bit-identical.
pub fn same_report(a: &SimReport, b: &SimReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    a.elapsed.to_bits() == b.elapsed.to_bits()
        && a.bytes.to_bits() == b.bytes.to_bits()
        && a.bandwidth.to_bits() == b.bandwidth.to_bits()
        && bits(&a.op_finish) == bits(&b.op_finish)
        && a.transfers == b.transfers
        && a.flushes == b.flushes
        && a.last_transfer_finish.to_bits() == b.last_transfer_finish.to_bits()
        && a.last_flush_finish.to_bits() == b.last_flush_finish.to_bits()
        && (a.faults_injected, a.retries, a.reelections, a.degraded)
            == (b.faults_injected, b.retries, b.reelections, b.degraded)
}

/// Epochs of one session, timed, with the correctness gates applied.
#[derive(Debug, Default)]
pub struct EpochRun {
    pub ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first: Option<SimReport>,
}

impl EpochRun {
    /// Fold in another run; its first report must match this one's.
    pub fn absorb(&mut self, other: EpochRun) {
        self.ns.extend(other.ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let (Some(f), Some(x)) = (&self.first, &other.first) {
            self.attempted += 1;
            self.failed += u64::from(!same_report(f, x));
        }
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// Run epochs of `session` until `budget` has passed (at least `min`).
/// Each epoch must return `Ok`, carry the declared bytes, and be
/// bit-identical to the session's first epoch.
pub fn run_epochs(
    session: &mut SimSession<'_>,
    declared: u64,
    budget: Duration,
    min: usize,
) -> EpochRun {
    let mut out = EpochRun::default();
    let t = Instant::now();
    while t.elapsed() < budget || out.ns.len() < min {
        let t0 = Instant::now();
        let rep = session.run_epoch();
        out.ns.push(t0.elapsed().as_nanos() as u64);
        out.attempted += 1;
        match rep {
            Ok(rep) => {
                let ok = rep.bytes == declared as f64
                    && out.first.as_ref().is_none_or(|f| same_report(f, &rep));
                if !ok {
                    eprintln!(
                        "e2ebench: simulated epoch differs (bytes {} of {declared})",
                        rep.bytes
                    );
                }
                out.failed += u64::from(!ok);
                out.first.get_or_insert(rep);
            }
            Err(e) => {
                eprintln!("e2ebench: run_epoch failed: {e}");
                out.failed += 1;
            }
        }
    }
    out
}

/// Build a session, timing it; `tracer` is attached to the config.
pub fn build<'a>(
    shape: &'a SimShape,
    spec: &CollectiveSpec,
    tracer: Option<std::sync::Arc<Tracer>>,
) -> (SimSession<'a>, u64) {
    let mut cfg = shape.cfg();
    cfg.tracer = tracer;
    let t0 = Instant::now();
    let s = SimSession::build(&shape.profile, &shape.storage, spec, &cfg);
    let ns = t0.elapsed().as_nanos() as u64;
    match s {
        Ok(s) => (s, ns),
        Err(e) => panic!("SimSession::build failed: {e}"),
    }
}
