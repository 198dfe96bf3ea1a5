//! Thread-executor workloads: whole `Session`s on the in-process MPI
//! runtime (ranks are threads), plus the `tapioca-mpi` primitives timed
//! at the workload's own operation sizes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tapioca::prelude::*;
use tapioca::schedule::{compute_schedule, Schedule, ScheduleParams};
use tapioca_mpi::{Comm, Runtime, SharedFile, Window};
use tapioca_topology::{Machine, MachineProfile};
use tapioca_trace::{Trace, Tracer};
use tapioca_workloads::datagen::expected_range;

use crate::spans::{SpanLog, TraceId};

/// One thread-mode shape: a machine model, every rank's declarations
/// and the two settings a workload may change from the default config.
#[derive(Debug, Clone)]
pub struct ThreadShape {
    pub profile: MachineProfile,
    pub decls: Vec<Vec<WriteDecl>>,
    pub aggregators: usize,
    pub buffer: u64,
}

impl ThreadShape {
    pub fn cfg(&self) -> TapiocaConfig {
        TapiocaConfig {
            num_aggregators: self.aggregators,
            buffer_size: self.buffer,
            ..Default::default()
        }
    }

    pub fn ranks(&self) -> usize {
        self.decls.len()
    }

    pub fn declared_bytes(&self) -> u64 {
        self.decls.iter().flatten().map(|d| d.len).sum()
    }

    pub fn schedule(&self) -> Schedule {
        compute_schedule(
            &self.decls,
            ScheduleParams {
                num_aggregators: self.aggregators,
                buffer_size: self.buffer,
                align_to_buffer: true,
            },
        )
    }
}

/// Seeded payloads: two alternating sets (even/odd epochs), each as
/// per-rank, per-variable buffers plus the file image it produces.
#[derive(Debug)]
pub struct Payloads {
    sets: [Vec<Vec<Vec<u8>>>; 2],
    files: [Vec<u8>; 2],
}

impl Payloads {
    pub fn new(shape: &ThreadShape, seed: u64) -> Payloads {
        let end = shape
            .decls
            .iter()
            .flatten()
            .map(|d| d.offset + d.len)
            .max()
            .unwrap_or(0);
        let make = |set: u64| {
            let s = seed ^ set.wrapping_mul(0x5851_F42D_4C95_7F2D);
            let bufs: Vec<Vec<Vec<u8>>> = shape
                .decls
                .iter()
                .map(|ds| {
                    ds.iter()
                        .map(|d| expected_range(s, d.offset, d.len as usize))
                        .collect()
                })
                .collect();
            let mut file = vec![0u8; end as usize];
            for (ds, bs) in shape.decls.iter().zip(&bufs) {
                for (d, b) in ds.iter().zip(bs) {
                    file[d.offset as usize..(d.offset + d.len) as usize].copy_from_slice(b);
                }
            }
            (bufs, file)
        };
        let (s0, f0) = make(0);
        let (s1, f1) = make(1);
        Payloads {
            sets: [s0, s1],
            files: [f0, f1],
        }
    }
}

/// Steady epochs per traced session that record benchmark spans.
pub const SPAN_EPOCHS: u32 = 50;

/// Settings of one session run.
#[derive(Debug, Clone)]
pub struct SessionOpts {
    pub index: u32,
    /// Steady epochs run until this much time has passed...
    pub steady: Duration,
    /// ...or this many epochs completed.
    pub max_epochs: usize,
    pub reads: usize,
    /// Record benchmark spans and attach a library `Tracer`.
    pub traced: bool,
    pub origin: Instant,
}

/// What one rank saw in one session.
#[derive(Debug)]
struct RankRun {
    open_ns: u64,
    first_done_ns: u64,
    /// (first write issued, last write returned, trailing barrier left).
    epochs: Vec<(u64, u64, u64)>,
    write_call_ns: Vec<u64>,
    reads: Vec<(u64, u64)>,
    write_errs: u64,
    read_bad: u64,
    last_set: usize,
    stats: Option<IoStats>,
    traces: Vec<Trace>,
    /// Rank 0 only: the file on disk held the expected bytes.
    disk_ok: bool,
    spans: SpanLog,
}

/// One session, merged over ranks.
#[derive(Debug)]
pub struct SessionOut {
    /// open_shared + build + first epoch, slowest rank.
    pub setup_ns: u64,
    /// Steady epochs: first write issued to last rank's return.
    pub epoch_ns: Vec<u64>,
    /// Per rank and epoch: wait at the trailing barrier.
    pub wait_ns: Vec<u64>,
    pub write_call_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Collective operations attempted / failed (epochs, reads, the
    /// on-disk check).
    pub attempted: u64,
    pub failed: u64,
    /// Last steady epoch's counters summed over ranks.
    pub stats: IoStats,
    /// One protocol trace per epoch (traced sessions only).
    pub traces: Vec<Trace>,
    pub spans: SpanLog,
}

fn now(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Run one `Session` per entry of `opts`, one after another on the same
/// rank threads: set-up (open + build + first epoch), steady epochs
/// bracketed by this benchmark's barriers, then `read_declared` calls;
/// after each session rank 0 checks the file on disk and calls
/// `between` while the other ranks wait.
pub fn run_sessions(
    shape: &ThreadShape,
    pay: &Payloads,
    path: &Path,
    opts: &[SessionOpts],
    between: &(dyn Fn() + Sync),
) -> Vec<SessionOut> {
    let machine: Arc<Machine> = Arc::new(shape.profile.machine.clone());
    let tracers: Vec<Option<Arc<Tracer>>> = opts
        .iter()
        .map(|o| o.traced.then(|| Tracer::new(shape.ranks())))
        .collect();
    let stops: Vec<AtomicBool> = opts.iter().map(|_| AtomicBool::new(false)).collect();
    let runs = Runtime::run(shape.ranks(), |comm: Comm| {
        opts.iter()
            .zip(&tracers)
            .zip(&stops)
            .map(|((o, tracer), stop)| {
                let mut run = rank_session(&comm, shape, pay, path, &machine, o, tracer, stop);
                comm.barrier();
                if comm.rank() == 0 {
                    let on_disk = std::fs::read(path).ok();
                    run.disk_ok = on_disk.as_deref() == Some(pay.files[run.last_set].as_slice());
                    between();
                }
                run
            })
            .collect::<Vec<RankRun>>()
    });
    let mut per_rank: Vec<std::vec::IntoIter<RankRun>> =
        runs.into_iter().map(Vec::into_iter).collect();
    opts.iter()
        .map(|o| {
            let session: Vec<RankRun> = per_rank
                .iter_mut()
                .map(|it| it.next().expect("one run per session"))
                .collect();
            merge_session(session, o, path)
        })
        .collect()
}

/// One rank's part of one session.
#[allow(clippy::too_many_arguments)]
fn rank_session(
    comm: &Comm,
    shape: &ThreadShape,
    pay: &Payloads,
    path: &Path,
    machine: &Arc<Machine>,
    o: &SessionOpts,
    tracer: &Option<Arc<Tracer>>,
    stop: &AtomicBool,
) -> RankRun {
    let origin = o.origin;
    let mut cfg = shape.cfg();
    cfg.tracer = tracer.clone();
    let r = comm.rank();
    let mine = &shape.decls[r];
    let mut sp = SpanLog::new(origin, o.traced);
    let id = |epoch: u32| TraceId {
        session: o.index,
        epoch,
        rank: r as u32,
    };
    let mut run = RankRun {
        open_ns: 0,
        first_done_ns: 0,
        epochs: Vec::new(),
        write_call_ns: Vec::new(),
        reads: Vec::new(),
        write_errs: 0,
        read_bad: 0,
        last_set: 0,
        stats: None,
        traces: Vec::new(),
        disk_ok: false,
        spans: SpanLog::new(origin, false),
    };
    comm.barrier();
    run.open_ns = now(origin);
    sp.span("session", id(u32::MAX), |sp| {
        let file = sp.span("api.open_shared", id(u32::MAX), |_| {
            SharedFile::open_shared(comm, path)
        });
        let built = sp.span("api.build", id(u32::MAX), |_| {
            Session::builder(comm, file)
                .declarations(mine.clone())
                .config(cfg.clone())
                .topology(machine.clone())
                .build()
        });
        let mut io = match built {
            Ok(io) => io,
            Err(e) => panic!("rank {r}: session build failed: {e}"),
        };
        let write_epoch =
            |sp: &mut SpanLog, io: &mut Session<'_>, set: usize, e: u32, calls: &mut Vec<u64>| {
                let mut errs = 0;
                for (v, d) in mine.iter().enumerate() {
                    let t0 = now(origin);
                    let res = sp.span("api.write", id(e), |_| {
                        io.write(d.offset, &pay.sets[set][r][v])
                    });
                    calls.push(now(origin) - t0);
                    errs += u64::from(res.is_err());
                }
                errs
            };
        // Rank 0 takes each epoch's protocol trace between two
        // barriers: the checker replays one collective at a time.
        let drain = |traces: &mut Vec<Trace>| {
            if let (0, Some(t)) = (r, tracer) {
                traces.push(t.drain());
            }
        };
        let mut first_calls = Vec::new();
        run.write_errs += sp.span("epoch.first", id(0), |sp| {
            write_epoch(sp, &mut io, 0, 0, &mut first_calls)
        });
        run.first_done_ns = now(origin);
        comm.barrier();
        drain(&mut run.traces);
        let steady_from = Instant::now();
        let mut e = 1u32;
        loop {
            // Rank 0 raises `stop` before this barrier; every rank
            // reads it after, so all leave the loop together.
            comm.barrier();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // Spans of the first epochs suffice for attribution and keep
            // the span dump small; the library tracer stays on.
            sp.set_enabled(o.traced && e <= SPAN_EPOCHS);
            let set = e as usize % 2;
            let start = now(origin);
            run.write_errs += sp.span("epoch", id(e), |sp| {
                write_epoch(sp, &mut io, set, e, &mut run.write_call_ns)
            });
            let end = now(origin);
            sp.span("bench.epoch_wait", id(e), |_| comm.barrier());
            run.epochs.push((start, end, now(origin)));
            drain(&mut run.traces);
            run.last_set = set;
            run.stats = io.stats().cloned();
            if let Some(st) = &run.stats {
                sp.count_on(
                    "epoch",
                    &[
                        ("puts", st.puts),
                        ("put_bytes", st.put_bytes),
                        ("fences", st.fences),
                        ("flushes", st.flushes),
                        ("flush_bytes", st.flush_bytes),
                        ("staging_copy_bytes", st.staging_copy_bytes),
                    ],
                );
            }
            if r == 0 && (steady_from.elapsed() >= o.steady || e as usize >= o.max_epochs) {
                stop.store(true, Ordering::SeqCst);
            }
            e += 1;
        }
        sp.set_enabled(o.traced);
        for _ in 0..o.reads {
            comm.barrier();
            let t0 = now(origin);
            let got = sp.span("api.read_declared", id(u32::MAX), |_| io.read_declared());
            run.reads.push((t0, now(origin)));
            let ok = got.is_ok_and(|bufs| bufs == pay.sets[run.last_set][r]);
            run.read_bad += u64::from(!ok);
        }
        io.finalize();
    });
    run.spans = sp;
    run
}

/// Merge the ranks' views of one session.
fn merge_session(runs: Vec<RankRun>, o: &SessionOpts, path: &Path) -> SessionOut {
    let mut out = SessionOut {
        setup_ns: runs.iter().map(|x| x.first_done_ns).max().unwrap_or(0)
            - runs.iter().map(|x| x.open_ns).min().unwrap_or(0),
        epoch_ns: Vec::new(),
        wait_ns: Vec::new(),
        write_call_ns: Vec::new(),
        read_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        stats: IoStats::default(),
        traces: Vec::new(),
        spans: SpanLog::new(o.origin, false),
    };
    let epochs = runs[0].epochs.len();
    for e in 0..epochs {
        let start = runs.iter().map(|x| x.epochs[e].0).min().unwrap_or(0);
        let end = runs.iter().map(|x| x.epochs[e].1).max().unwrap_or(0);
        out.epoch_ns.push(end - start);
        out.wait_ns
            .extend(runs.iter().map(|x| x.epochs[e].2 - x.epochs[e].1));
    }
    for k in 0..o.reads {
        let start = runs.iter().map(|x| x.reads[k].0).min().unwrap_or(0);
        let end = runs.iter().map(|x| x.reads[k].1).max().unwrap_or(0);
        out.read_ns.push(end - start);
    }
    // One collective op per epoch (first + steady) and per read, plus
    // the on-disk check; a rank error or a bad payload fails the op.
    out.attempted = (epochs + 1 + o.reads) as u64 + 1;
    out.failed = runs.iter().map(|x| x.write_errs).max().unwrap_or(0)
        + runs.iter().map(|x| x.read_bad).max().unwrap_or(0);
    if !runs[0].disk_ok {
        eprintln!(
            "e2ebench: file on disk differs from the expected bytes ({})",
            path.display()
        );
        out.failed += 1;
    }
    for x in runs {
        out.traces.extend(x.traces);
        out.write_call_ns.extend(&x.write_call_ns);
        if let Some(s) = &x.stats {
            out.stats.merge(s);
        }
        out.spans.absorb(x.spans);
    }
    out
}

/// Resident set size of this process, in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

/// Growth of the process RSS per session when `sessions` sessions (one
/// epoch and one read each) run one after another in one runtime, as
/// an application keeps its MPI world for the whole job. The objects a
/// world's registry holds live as long as the world.
pub fn rss_growth_per_session(
    shape: &ThreadShape,
    pay: &Payloads,
    path: &Path,
    sessions: u32,
) -> f64 {
    let origin = Instant::now();
    let opts: Vec<SessionOpts> = (0..sessions)
        .map(|index| SessionOpts {
            index,
            steady: Duration::ZERO,
            max_epochs: 1,
            reads: 1,
            traced: false,
            origin,
        })
        .collect();
    let marks = std::sync::Mutex::new(Vec::new());
    run_sessions(shape, pay, path, &opts, &|| {
        marks.lock().expect("marks lock").push(rss_bytes())
    });
    let marks = marks.into_inner().expect("marks lock");
    match (marks.first(), marks.last()) {
        (Some(&a), Some(&b)) if marks.len() > 1 => (b as f64 - a as f64) / (marks.len() - 1) as f64,
        _ => 0.0,
    }
}

/// Median time per `Comm::barrier` across all ranks, in ns.
pub fn time_barrier(ranks: usize, budget: Duration) -> Vec<f64> {
    const CALLS: u32 = 200;
    let per = Runtime::run(ranks, |comm: Comm| {
        let t = Instant::now();
        let mut samples = Vec::new();
        loop {
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..CALLS {
                comm.barrier();
            }
            samples.push(t0.elapsed().as_nanos() as f64 / f64::from(CALLS));
            let go = comm.rank() == 0 && (t.elapsed() < budget || samples.len() < 5);
            if comm.bcast(0, vec![u8::from(go)])[0] == 0 {
                break samples;
            }
        }
    });
    per.into_iter().flatten().collect()
}

/// Bytes per second of `Window::put` over the workload's chunks: every
/// rank puts its chunks of every round into its partition's target rank.
/// One sample per pass: total bytes ÷ (last put returned − first issued).
pub fn time_puts(shape: &ThreadShape, pay: &Payloads, budget: Duration) -> Vec<f64> {
    let sched = shape.schedule();
    let n = shape.ranks();
    let total: u64 = sched.chunks_by_rank.iter().flatten().map(|c| c.len).sum();
    let origin = Instant::now();
    let per = Runtime::run(n, |comm: Comm| {
        let r = comm.rank();
        let win = Window::allocate(&comm, 2 * shape.buffer as usize);
        let chunks = &sched.chunks_by_rank[r];
        let t = Instant::now();
        let mut marks = Vec::new();
        loop {
            comm.barrier();
            let t0 = now(origin);
            for c in chunks {
                let src =
                    &pay.sets[0][r][c.var][c.var_offset as usize..(c.var_offset + c.len) as usize];
                win.put(c.partition % n, c.buf_offset as usize, src);
            }
            marks.push((t0, now(origin)));
            win.fence(&comm);
            let go = r == 0 && (t.elapsed() < budget || marks.len() < 5);
            if comm.bcast(0, vec![u8::from(go)])[0] == 0 {
                break marks;
            }
        }
    });
    (0..per[0].len())
        .map(|k| {
            let a = per.iter().map(|m| m[k].0).min().unwrap_or(0);
            let b = per.iter().map(|m| m[k].1).max().unwrap_or(0);
            total as f64 / (b - a).max(1) as f64 * 1e9
        })
        .collect()
}

/// Bytes per second of `SharedFile::iwrite_at` + wait and of `read_at`
/// over the workload's flush segments (one pass per sample), and
/// whether every read returned the written bytes.
pub fn time_file(
    shape: &ThreadShape,
    pay: &Payloads,
    path: &Path,
    budget: Duration,
) -> (Vec<f64>, Vec<f64>, bool) {
    let sched = shape.schedule();
    let segs: Vec<(u64, u64)> = sched
        .partitions
        .iter()
        .flat_map(|p| {
            p.rounds
                .iter()
                .flat_map(|r| r.segments.iter().map(|s| (s.file_offset, s.len)))
        })
        .collect();
    let total: u64 = segs.iter().map(|s| s.1).sum();
    let image = &pay.files[0];
    let mut bufs: Vec<Vec<u8>> = segs
        .iter()
        .map(|&(o, l)| image[o as usize..(o + l) as usize].to_vec())
        .collect();
    let file = SharedFile::create(path).expect("create scratch file");
    let (mut w, mut rd, mut ok) = (Vec::new(), Vec::new(), true);
    let t = Instant::now();
    while t.elapsed() < budget || w.len() < 5 {
        let t0 = Instant::now();
        for (k, &(off, _)) in segs.iter().enumerate() {
            let h = file.iwrite_at(off, std::mem::take(&mut bufs[k]));
            bufs[k] = h
                .wait_reclaim()
                .expect("scratch write")
                .expect("non-empty segment");
        }
        w.push(total as f64 / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let mut back = Vec::with_capacity(segs.len());
        for &(off, len) in &segs {
            back.push(file.read_at(off, len as usize).expect("scratch read"));
        }
        rd.push(total as f64 / t0.elapsed().as_secs_f64());
        ok &= back == bufs;
    }
    (w, rd, ok)
}

/// A scratch file path unique to this process.
pub fn scratch_file(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}-{}.bin", std::process::id()))
}
