//! Host-speed reference for the simulator workloads.
//!
//! On a shared VM the speed of the host drifts by up to 2x over minutes
//! (neighbours load the caches, the memory and the clock), with little
//! or no recorded steal, and one simulated epoch slows with it. The
//! reference kernel below is fixed code of this benchmark, independent
//! of the library, with the same kind of work as the simulator (small
//! allocations, hash-map inserts and lookups). It is timed right before
//! every simulated build and every pair of write and read epochs, and
//! each build and epoch time is reported at the reference host speed
//! (epochs of one pass over the sessions share the pass's median kernel
//! time):
//!
//! ```text
//! corrected = measured × REFERENCE_NS / reference kernel time
//! ```
//!
//! A change to the library moves `measured` and leaves the kernel
//! alone, so it moves the corrected time by the same factor.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's time on the reference host (about its median on a
/// 2-vCPU Xeon VM at 2.1 GHz); corrected times are in ms of that host.
pub const REFERENCE_NS: f64 = 10.0e6;

/// Time one run of the reference kernel, in ns. Its two parts were
/// chosen by how closely their time tracked a `sim-ior-mira-65k` epoch
/// over a 200 s run in which the host's speed drifted by 45%: together
/// they slow by the same factor as the epoch.
pub fn reference_ns() -> f64 {
    let t = Instant::now();
    let mut vecs: Vec<Vec<u32>> = Vec::new();
    for i in 0..60_000u32 {
        let mut v = Vec::with_capacity((i % 37) as usize + 1);
        v.push(i);
        vecs.push(v);
        if i % 3 == 0 {
            let k = (i as usize * 7) % vecs.len();
            vecs.swap_remove(k);
        }
    }
    std::hint::black_box(&vecs);
    drop(vecs);
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..100_000u64 {
        map.insert(key(i), i);
    }
    let sum = (0..100_000u64).fold(0u64, |s, i| s.wrapping_add(map[&key(i)]));
    std::hint::black_box(sum);
    t.elapsed().as_nanos() as f64
}

/// `measured` (ns) at the reference host speed, given the kernel time
/// `reference` (ns) taken next to it.
pub fn corrected(measured: f64, reference: f64) -> f64 {
    measured * REFERENCE_NS / reference
}

