//! Cross-crate integration: end-to-end byte correctness of the TAPIOCA
//! pipeline on the thread runtime, across configurations and workloads.

use std::sync::Arc;

use tapioca::prelude::*;
use tapioca::{FaultPlan, FaultSpec};
use tapioca_mpi::{Comm, Runtime, SharedFile};
use tapioca_topology::{theta_profile, TopologyProvider};
use tapioca_workloads::datagen::{expected_range, verify_slice};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Write a dense file (rank r owns [r*per, (r+1)*per)) with seeded data
/// and verify every byte, for one configuration.
fn roundtrip_dense(name: &str, ranks: usize, per: u64, aggr: usize, buf: u64, pipelining: bool) {
    let path = tmp(name);
    let seed = 0xC0FFEE ^ per ^ aggr as u64;
    Runtime::run(ranks, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let decls = vec![WriteDecl { offset: r * per, len: per }];
        let cfg = TapiocaConfig {
            num_aggregators: aggr,
            buffer_size: buf,
            pipelining,
            strategy: PlacementStrategy::TopologyAware,
            ..Default::default()
        };
        let mut io =
            Session::builder(&comm, file).declarations(decls).config(cfg).build().unwrap();
        io.write(r * per, &expected_range(seed, r * per, per as usize)).unwrap();
        io.finalize();
    });
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, ranks as u64 * per);
    assert_eq!(verify_slice(seed, 0, &bytes), None, "config {name} corrupted the file");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dense_small_buffers_many_rounds() {
    roundtrip_dense("small-buf", 8, 4096, 2, 128, true);
}

#[test]
fn dense_buffer_larger_than_partition() {
    roundtrip_dense("big-buf", 4, 512, 4, 1 << 20, true);
}

#[test]
fn dense_single_aggregator() {
    roundtrip_dense("one-aggr", 6, 2048, 1, 512, true);
}

#[test]
fn dense_unpipelined() {
    roundtrip_dense("nopipe", 8, 4096, 3, 256, false);
}

#[test]
fn dense_aggregators_exceed_ranks_worth_of_data() {
    roundtrip_dense("many-aggr", 4, 256, 16, 64, true);
}

#[test]
fn odd_sizes_and_buffers() {
    // deliberately non-power-of-two everything
    roundtrip_dense("odd", 7, 999, 3, 97, true);
}

#[test]
fn hacc_both_layouts_through_tapioca() {
    for layout in [Layout::ArrayOfStructs, Layout::StructOfArrays] {
        let w = HaccIo { num_ranks: 12, particles_per_rank: 500, layout };
        let path = tmp(&format!("hacc-{layout:?}"));
        let wl = w;
        Runtime::run(w.num_ranks, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls = wl.decls_of_rank(r);
            let mut io = Session::builder(&comm, file)
                .declarations(decls.clone())
                .config(TapiocaConfig {
                    num_aggregators: 3,
                    buffer_size: 4096,
                    ..Default::default()
                })
                .build()
                .unwrap();
            for (v, d) in decls.iter().enumerate() {
                io.write(d.offset, &wl.payload(r, v)).unwrap();
            }
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, w.total_bytes());
        for r in 0..w.num_ranks as u64 {
            for (v, d) in w.decls_of_rank(r).iter().enumerate() {
                assert_eq!(
                    &bytes[d.offset as usize..(d.offset + d.len) as usize],
                    w.payload(r, v).as_slice(),
                    "{layout:?} rank {r} var {v}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn io_stats_match_the_schedule() {
    // The executed traffic must account for every declared byte exactly
    // once: sum of per-rank put_bytes == sum of flush_bytes == payload.
    let path = tmp("stats");
    let n = 9;
    let per = 1000u64;
    let stats = Runtime::run(n, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let decls = vec![WriteDecl { offset: r * per, len: per }];
        let mut io = Session::builder(&comm, file)
            .declarations(decls)
            .config(TapiocaConfig {
                num_aggregators: 3,
                buffer_size: 512,
                ..Default::default()
            })
            .build()
            .unwrap();
        io.write(r * per, &expected_range(5, r * per, per as usize)).unwrap();
        let s = *io.stats().expect("flushed");
        io.finalize();
        s
    });
    let mut total = tapioca::aggregation::IoStats::default();
    for s in &stats {
        total.merge(s);
    }
    assert_eq!(total.put_bytes, n as u64 * per, "every byte put exactly once");
    assert_eq!(total.flush_bytes, n as u64 * per, "every byte flushed exactly once");
    assert_eq!(total.elected, 3, "one aggregator elected per partition");
    assert!(total.puts >= n as u64, "at least one put per rank");
    // each member passes two fences per round of each of its partitions
    assert!(total.fences > 0 && total.fences % 2 == 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn write_then_two_phase_read_roundtrip() {
    let path = tmp("w-then-r");
    Runtime::run(10, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let per = 700u64;
        let decls = vec![WriteDecl { offset: r * per, len: per }];
        let mut io = Session::builder(&comm, file)
            .declarations(decls)
            .config(TapiocaConfig {
                num_aggregators: 4,
                buffer_size: 333,
                ..Default::default()
            })
            .build()
            .unwrap();
        let payload = expected_range(7, r * per, per as usize);
        io.write(r * per, &payload).unwrap();
        let back = io.read_declared().unwrap();
        assert_eq!(back[0], payload);
        io.finalize();
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_operations_on_one_communicator() {
    // several init/write epochs back-to-back must not cross-talk
    let paths: Vec<_> = (0..3).map(|i| tmp(&format!("epoch-{i}"))).collect();
    let paths2 = paths.clone();
    Runtime::run(6, move |comm| {
        for (epoch, path) in paths2.iter().enumerate() {
            let file = SharedFile::open_shared(&comm, path);
            let r = comm.rank() as u64;
            let per = 256 + 64 * epoch as u64;
            let decls = vec![WriteDecl { offset: r * per, len: per }];
            let mut io = Session::builder(&comm, file)
                .declarations(decls)
                .config(TapiocaConfig {
                    num_aggregators: 2 + epoch,
                    buffer_size: 128,
                    ..Default::default()
                })
                .build()
                .unwrap();
            io.write(r * per, &expected_range(epoch as u64, r * per, per as usize)).unwrap();
            io.finalize();
        }
    });
    for (epoch, path) in paths.iter().enumerate() {
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(verify_slice(epoch as u64, 0, &bytes), None, "epoch {epoch}");
        std::fs::remove_file(path).ok();
    }
}

/// The read-path shapes, 8 ranks each: one IOR block per rank, and the
/// nine HACC variables per rank in the SoA layout (every variable its
/// own file region).
fn read_shapes() -> [(&'static str, Vec<Vec<WriteDecl>>); 2] {
    [
        ("ior", IorSpec { num_ranks: 8, bytes_per_rank: 1500 }.decls()),
        (
            "hacc-soa",
            HaccIo { num_ranks: 8, particles_per_rank: 30, layout: Layout::StructOfArrays }
                .decls(),
        ),
    ]
}

/// Small buffers, so every partition runs many rounds through both
/// window slots.
fn read_cfg() -> TapiocaConfig {
    TapiocaConfig { num_aggregators: 2, buffer_size: 384, ..Default::default() }
}

fn read_session<'c>(
    comm: &'c Comm,
    file: SharedFile,
    decls: &[WriteDecl],
    cfg: &TapiocaConfig,
    topo: Option<&Arc<dyn TopologyProvider>>,
) -> Session<'c> {
    let b = Session::builder(comm, file).declarations(decls.to_vec()).config(cfg.clone());
    match topo {
        Some(t) => b.topology(Arc::clone(t)),
        None => b,
    }
    .build()
    .unwrap()
}

/// One epoch writing `seed`'s bytes at every declared extent.
fn write_epoch(io: &mut Session<'_>, decls: &[WriteDecl], seed: u64) {
    for d in decls {
        io.write(d.offset, &expected_range(seed, d.offset, d.len as usize)).unwrap();
    }
}

/// `read_declared` returns `seed`'s bytes at every declared extent.
fn assert_read(io: &mut Session<'_>, decls: &[WriteDecl], seed: u64, what: &str) {
    let back = io.read_declared().unwrap();
    assert_eq!(back.len(), decls.len(), "{what}");
    for (v, (d, got)) in decls.iter().zip(&back).enumerate() {
        assert!(
            *got == expected_range(seed, d.offset, d.len as usize),
            "{what}: var {v} at offset {} differs",
            d.offset
        );
    }
}

/// Run `body` on every rank of both read shapes, each rank with its
/// comm, the shape's shared file, and its declarations; afterwards the
/// file must hold the bytes of seed `final_seed`.
fn on_read_shapes(
    name: &str,
    final_seed: u64,
    body: impl Fn(&str, &Comm, SharedFile, &[WriteDecl]) + Sync,
) {
    for (shape, decls) in read_shapes() {
        let path = tmp(&format!("{name}-{shape}"));
        Runtime::run(decls.len(), |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            body(shape, &comm, file, &decls[comm.rank()]);
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(verify_slice(final_seed, 0, &bytes), None, "{name}/{shape}: file on disk");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn consecutive_reads_reuse_the_cached_partitions() {
    on_read_shapes("reads-cached", 1, |shape, comm, file, decls| {
        let mut io = read_session(comm, file, decls, &read_cfg(), None);
        write_epoch(&mut io, decls, 1);
        comm.barrier();
        let shared = comm.world_registry_len();
        for k in 0..3 {
            assert_read(&mut io, decls, 1, &format!("{shape} read {k}"));
        }
        comm.barrier();
        assert_eq!(
            comm.world_registry_len(),
            shared,
            "{shape}: cached reads created subgroups or windows"
        );
        io.finalize();
    });
}

#[test]
fn read_before_any_epoch_forms_the_cache_for_later_epochs() {
    on_read_shapes("read-first", 6, |shape, comm, file, decls| {
        for d in decls {
            file.write_at(d.offset, &expected_range(5, d.offset, d.len as usize)).unwrap();
        }
        comm.barrier();
        let mut io = read_session(comm, file, decls, &read_cfg(), None);
        assert_read(&mut io, decls, 5, &format!("{shape} read before any epoch"));
        // The read formed every partition's state; the write epoch and
        // the read after it run through it and create nothing new.
        comm.barrier();
        let shared = comm.world_registry_len();
        write_epoch(&mut io, decls, 6);
        assert_read(&mut io, decls, 6, &format!("{shape} read after the first epoch"));
        comm.barrier();
        assert_eq!(comm.world_registry_len(), shared, "{shape}: the read's cache was not reused");
        io.finalize();
    });
}

#[test]
fn reads_under_a_fault_plan_form_partitions_afresh() {
    let cfg = TapiocaConfig {
        faults: Some(
            FaultPlan::seeded(11)
                .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                .with(FaultSpec::TransientFlushError { probability: 0.2 }),
        ),
        ..read_cfg()
    };
    on_read_shapes("read-faults", 2, |shape, comm, file, decls| {
        let mut io = read_session(comm, file, decls, &cfg, None);
        write_epoch(&mut io, decls, 1);
        assert_read(&mut io, decls, 1, &format!("{shape} first uncached read"));
        assert_read(&mut io, decls, 1, &format!("{shape} second uncached read"));
        write_epoch(&mut io, decls, 2);
        assert_read(&mut io, decls, 2, &format!("{shape} read after the second epoch"));
        io.finalize();
    });
}

#[test]
fn reads_with_coalescing_on() {
    // Two ranks per node, so co-located puts merge on the write path;
    // the read runs through the same cached partitions.
    let topo: Arc<dyn TopologyProvider> = Arc::new(theta_profile(4, 2).machine);
    let cfg = TapiocaConfig { coalescing: true, ..read_cfg() };
    let merged = std::sync::atomic::AtomicU64::new(0);
    on_read_shapes("read-coalesced", 2, |shape, comm, file, decls| {
        let mut io = read_session(comm, file, decls, &cfg, Some(&topo));
        write_epoch(&mut io, decls, 1);
        merged.fetch_add(io.stats().unwrap().coalesced_puts, std::sync::atomic::Ordering::Relaxed);
        assert_read(&mut io, decls, 1, &format!("{shape} coalesced read"));
        write_epoch(&mut io, decls, 2);
        assert_read(&mut io, decls, 2, &format!("{shape} coalesced read after a second epoch"));
        io.finalize();
    });
    assert!(merged.into_inner() > 0, "the shapes exercised no merged puts");
}

#[test]
fn write_read_write_read_alternates_payloads() {
    on_read_shapes("w-r-w-r", 2, |shape, comm, file, decls| {
        let mut io = read_session(comm, file, decls, &read_cfg(), None);
        write_epoch(&mut io, decls, 1);
        assert_read(&mut io, decls, 1, &format!("{shape} first payload"));
        write_epoch(&mut io, decls, 2);
        assert_read(&mut io, decls, 2, &format!("{shape} second payload"));
        io.finalize();
    });
}

#[cfg(feature = "trace")]
#[test]
fn epoch_traced_after_a_read_stays_protocol_clean() {
    use tapioca_check::check;
    use tapioca_trace::{Trace, TraceOp, Tracer};
    for (shape, decls) in read_shapes() {
        let tracer = Tracer::new(decls.len());
        let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..read_cfg() };
        let path = tmp(&format!("read-traced-{shape}"));
        // Rank 0 takes the trace of each phase between two barriers.
        let take = |comm: &Comm| -> Option<Trace> {
            comm.barrier();
            let t = (comm.rank() == 0).then(|| tracer.drain());
            comm.barrier();
            t
        };
        let mut phases = Runtime::run(decls.len(), |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let mine = &decls[comm.rank()];
            let mut io = read_session(&comm, file, mine, &cfg, None);
            write_epoch(&mut io, mine, 1);
            let first = take(&comm);
            assert_read(&mut io, mine, 1, shape);
            let read = take(&comm);
            write_epoch(&mut io, mine, 2);
            let second = take(&comm);
            io.finalize();
            [first, read, second]
        });
        let [first, read, second] = std::mem::take(&mut phases[0]).map(Option::unwrap);
        assert!(read.is_empty(), "{shape}: the read recorded {} events", read.events().len());
        for (name, t) in [("first", &first), ("after-read", &second)] {
            assert!(t.events().iter().any(|e| e.op == TraceOp::Fence), "{shape}/{name}: no fences");
            let v = check(t);
            assert!(v.is_empty(), "{shape}/{name} epoch has violations: {v:?}");
        }
        std::fs::remove_file(&path).ok();
    }
}

mod props {
    //! Property-style sweep with deterministic seeds: any mix of
    //! per-rank sizes, aggregator counts and buffer sizes round-trips
    //! byte-exactly through the full pipeline. Each case is fully
    //! determined by its seed, so a failure message names a seed that
    //! reproduces it exactly.

    use super::*;
    use tapioca_workloads::datagen::SplitMix64;

    #[test]
    fn prop_pipeline_roundtrips_seeded_sweep() {
        for seed in 0u64..12 {
            let mut rng = SplitMix64::new(0x5EED_0000 + seed);
            let n = rng.range_usize(2, 8);
            let sizes: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 2000)).collect();
            let aggr = rng.range_usize(1, 6);
            let buf = rng.range_u64(32, 700);
            let pipelining = rng.bool();

            let offsets: Vec<u64> = sizes
                .iter()
                .scan(0u64, |acc, s| {
                    let o = *acc;
                    *acc += s;
                    Some(o)
                })
                .collect();
            let total: u64 = sizes.iter().sum();
            let path = tmp(&format!("prop-{seed}"));
            let (sizes2, offsets2, path2) = (sizes.clone(), offsets.clone(), path.clone());
            Runtime::run(n, move |comm| {
                let file = SharedFile::open_shared(&comm, &path2);
                let r = comm.rank();
                let decls = vec![WriteDecl { offset: offsets2[r], len: sizes2[r] }];
                let mut io = Session::builder(&comm, file)
                    .declarations(decls)
                    .config(TapiocaConfig {
                        num_aggregators: aggr,
                        buffer_size: buf,
                        pipelining,
                        ..Default::default()
                    })
                    .build()
                    .unwrap();
                io.write(offsets2[r], &expected_range(99, offsets2[r], sizes2[r] as usize))
                    .unwrap();
                io.finalize();
            });
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                bytes.len() as u64,
                total,
                "seed {seed}: n={n} sizes={sizes:?} aggr={aggr} buf={buf} pipelining={pipelining}"
            );
            assert_eq!(
                verify_slice(99, 0, &bytes),
                None,
                "seed {seed}: n={n} sizes={sizes:?} aggr={aggr} buf={buf} pipelining={pipelining}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
