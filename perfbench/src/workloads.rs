//! The benchmark's workloads and everything they derive from the seed.
//!
//! Nothing here calls into the measured crates: a workload is plain data
//! (shapes, iteration counts, device and worker counts) plus seeded input
//! parameters. The adapter turns it into meshes, designs and executor calls.

/// Names of every workload the benchmark runs.
pub const NAMES: [&str; 4] = ["rtm-deep", "poisson-sharded-batch", "jacobi-rollback", "dse-sweep"];

/// The workloads `BENCHMARK.json` gates, in its order. The others run on
/// request only: on a shared host their times drift from one run to the
/// next by more than a gate can bound (about 20 % for `dse-sweep`, up to
/// 35 % for the two-thread, two-card `poisson-sharded-batch`), and no
/// calibration kernel tracks that drift.
pub const GATED: [&str; 2] = ["rtm-deep", "jacobi-rollback"];

/// The three paper applications.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum App {
    /// 5-point Poisson, 2D.
    Poisson,
    /// 7-point Jacobi, 3D.
    Jacobi,
    /// 25-point 8th-order RTM on 6-component cells, 3D, 4 RK stages.
    Rtm,
}

impl App {
    /// Stencil stages per iteration.
    pub fn stages(self) -> u64 {
        match self {
            App::Rtm => 4,
            App::Poisson | App::Jacobi => 1,
        }
    }
}

/// Checkpoint/rollback settings of a recoverable stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Rollback {
    /// Checkpoint every this many pipeline passes.
    pub checkpoint_every: usize,
    /// Rollback retry budget.
    pub max_retries: u32,
    /// Injection rate of each fault kind, faults per million opportunities.
    /// At one million with a cap of one, every mesh takes exactly one fault
    /// of each kind, at the same point of the stream for every seed, so the
    /// recovery work per operation does not vary with the seed; the seed
    /// still picks the corrupted cell, lane and bit.
    pub rate_ppm: u32,
    /// Cap on injections per mesh and fault kind.
    pub max_injections: u32,
}

/// One behavioral stream: what `sfstencil profile` runs for a workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Stream {
    /// Application.
    pub app: App,
    /// Mesh extents `[nx, ny, nz]` (`nz == 1` for 2D).
    pub dims: [usize; 3],
    /// Independent meshes streamed together.
    pub batch: usize,
    /// Solver iterations.
    pub iters: usize,
    /// Accelerator cards the mesh is sharded across.
    pub devices: usize,
    /// Worker threads, passed to every call that takes a count.
    pub jobs: usize,
    /// Run through the rollback-recoverable executor with a fault plan.
    pub rollback: Option<Rollback>,
}

impl Stream {
    /// Cells of one mesh.
    pub fn cells(&self) -> u64 {
        (self.dims[0] * self.dims[1] * self.dims[2]) as u64
    }

    /// Simulated cell-updates of the whole stream.
    pub fn cell_updates(&self) -> u64 {
        self.cells() * self.batch as u64 * self.iters as u64 * self.app.stages()
    }
}

/// What one operation of a workload is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Design query, preflight, input generation, then a behavioral stream.
    Stream(Stream),
    /// A serial sweep of seeded design queries, each asked twice.
    Sweep {
        /// Queries in the list.
        queries: usize,
    },
}

/// A named workload.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What an operation does.
    pub kind: Kind,
}

impl Workload {
    /// Worker threads the workload's calls are given.
    pub fn jobs(&self) -> usize {
        match self.kind {
            Kind::Stream(s) => s.jobs,
            Kind::Sweep { .. } => 1,
        }
    }
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let kind = match name {
        "rtm-deep" => Kind::Stream(Stream {
            app: App::Rtm,
            dims: [32, 32, 32],
            batch: 1,
            iters: 100,
            devices: 1,
            jobs: 1,
            rollback: None,
        }),
        "poisson-sharded-batch" => Kind::Stream(Stream {
            app: App::Poisson,
            dims: [400, 400, 1],
            batch: 8,
            iters: 240,
            devices: 2,
            jobs: 2,
            rollback: None,
        }),
        "jacobi-rollback" => Kind::Stream(Stream {
            app: App::Jacobi,
            dims: [64, 64, 64],
            batch: 2,
            iters: 192,
            devices: 1,
            jobs: 2,
            rollback: Some(Rollback {
                checkpoint_every: 4,
                max_retries: 3,
                rate_ppm: 1_000_000,
                max_injections: 1,
            }),
        }),
        "dse-sweep" => Kind::Sweep { queries: 120 },
        _ => return None,
    };
    let name = NAMES.iter().copied().find(|n| *n == name)?;
    Some(Workload { name, kind })
}

/// The stream a workload's layer probes run on: its own, or for the
/// sweep (which streams nothing) the paper's Poisson mesh on one card.
pub fn probe_stream(w: &Workload) -> Stream {
    match w.kind {
        Kind::Stream(s) => s,
        Kind::Sweep { .. } => Stream {
            app: App::Poisson,
            dims: [400, 400, 1],
            batch: 1,
            iters: 60,
            devices: 1,
            jobs: 1,
            rollback: None,
        },
    }
}

/// SplitMix64: a tiny, well-mixed generator for deriving inputs from the
/// workload seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, domain-separated by `stream` so different
    /// inputs of one run draw independent values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * u
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Domain tags for [`Rng::new`].
const MESH_STREAM: u64 = 1;
const FAULT_STREAM: u64 = 2;
const QUERY_STREAM: u64 = 3;
const RTM_STREAM: u64 = 4;

/// Seed of the random input meshes (Poisson, Jacobi).
pub fn mesh_seed(seed: u64) -> u64 {
    Rng::new(seed, MESH_STREAM).next_u64()
}

/// Seeds of the two fault plans of a recoverable stream: window bit flips
/// and FIFO payload corruption.
pub fn fault_seeds(seed: u64) -> [u64; 2] {
    let mut r = Rng::new(seed, FAULT_STREAM);
    [r.next_u64(), r.next_u64()]
}

/// Seeded RTM initial state: a Gaussian pressure pulse and smooth ρ/μ
/// fields, the shape of `sf_kernels::rtm::demo_workload` with position,
/// width, amplitude and coefficient ranges drawn from the seed.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RtmInput {
    /// Pulse center as a fraction of each extent.
    pub center: [f32; 3],
    /// Pulse width divisor (larger is wider).
    pub width: f32,
    /// Pulse amplitude.
    pub amp: f32,
    /// ρ at x = 0 and its rise across the mesh.
    pub rho: [f32; 2],
    /// μ at y = 0 and its rise across the mesh.
    pub mu: [f32; 2],
}

/// The RTM input parameters for `seed`.
pub fn rtm_input(seed: u64) -> RtmInput {
    let mut r = Rng::new(seed, RTM_STREAM);
    RtmInput {
        center: [r.uniform(0.35, 0.65), r.uniform(0.35, 0.65), r.uniform(0.35, 0.65)],
        width: r.uniform(0.8, 1.2),
        amp: r.uniform(0.5, 1.5),
        rho: [r.uniform(0.85, 0.95), r.uniform(0.1, 0.3)],
        mu: [r.uniform(0.015, 0.025), r.uniform(0.005, 0.015)],
    }
}

/// One design query of the sweep.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Application.
    pub app: App,
    /// Mesh extents `[nx, ny, nz]` (`nz == 1` for 2D).
    pub dims: [usize; 3],
    /// Solver iterations.
    pub iters: u64,
    /// Accelerator cards to consider (besides one).
    pub devices: usize,
    /// Inter-device link: Aurora when true, PCIe otherwise.
    pub aurora: bool,
}

/// Mesh strata per app, around the paper's evaluation sizes.
const POISSON_MESHES: [[usize; 3]; 5] =
    [[200, 100, 1], [400, 400, 1], [1000, 1000, 1], [2000, 1000, 1], [4000, 4000, 1]];
const JACOBI_MESHES: [[usize; 3]; 5] =
    [[64, 64, 64], [100, 100, 100], [200, 200, 200], [300, 300, 300], [400, 400, 200]];
const RTM_MESHES: [[usize; 3]; 5] =
    [[32, 32, 32], [50, 50, 50], [64, 64, 64], [80, 80, 80], [100, 100, 100]];

/// Device/link combinations each mesh is asked under.
const DEVICE_LINKS: [(usize, bool); 4] = [(1, true), (2, true), (2, false), (4, false)];

/// The fixed query pool: 3 apps × 5 meshes × 2 iteration counts × 4
/// device/link combinations = 120 queries.
pub fn query_pool() -> Vec<Query> {
    let mut pool = Vec::new();
    for (app, meshes, iters) in [
        (App::Poisson, POISSON_MESHES, [1_000u64, 60_000]),
        (App::Jacobi, JACOBI_MESHES, [100, 10_000]),
        (App::Rtm, RTM_MESHES, [100, 1_800]),
    ] {
        for dims in meshes {
            for it in iters {
                for (devices, aurora) in DEVICE_LINKS {
                    pool.push(Query { app, dims, iters: it, devices, aurora });
                }
            }
        }
    }
    pool
}

/// The seeded query list: the pool shuffled within each app, then dealt
/// round-robin across apps so every list opens with a Poisson query (the
/// first query is part of the sweep's set-up, so its app must not depend
/// on the seed).
pub fn query_list(seed: u64, queries: usize) -> Vec<Query> {
    let mut r = Rng::new(seed, QUERY_STREAM);
    let pool = query_pool();
    let mut per_app: Vec<Vec<Query>> = [App::Poisson, App::Jacobi, App::Rtm]
        .iter()
        .map(|&a| pool.iter().copied().filter(|q| q.app == a).collect())
        .collect();
    for qs in &mut per_app {
        for i in (1..qs.len()).rev() {
            qs.swap(i, r.below(i + 1));
        }
    }
    let per = per_app[0].len();
    (0..per).flat_map(|i| per_app.iter().map(move |qs| qs[i])).take(queries).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves() {
        for n in NAMES {
            assert_eq!(by_name(n).unwrap().name, n);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0u64, 1, 7, 12345] {
            assert_eq!(mesh_seed(seed), mesh_seed(seed));
            assert_eq!(fault_seeds(seed), fault_seeds(seed));
            assert_eq!(rtm_input(seed), rtm_input(seed));
            assert_eq!(query_list(seed, 120), query_list(seed, 120));
        }
        assert_ne!(mesh_seed(1), mesh_seed(2));
        assert_ne!(fault_seeds(1), fault_seeds(2));
        assert_ne!(rtm_input(1), rtm_input(2));
        assert_ne!(query_list(1, 120), query_list(2, 120));
    }

    #[test]
    fn query_list_is_a_permutation_of_the_pool() {
        let mut pool = query_pool();
        assert_eq!(pool.len(), 120);
        for seed in [3u64, 4] {
            let list = query_list(seed, 120);
            assert_eq!(list[0].app, App::Poisson);
            let key = |q: &Query| (q.app as u8, q.dims, q.iters, q.devices, q.aurora);
            let mut sorted = list.clone();
            sorted.sort_by_key(key);
            pool.sort_by_key(key);
            assert_eq!(sorted, pool);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = Rng::new(9, 0);
        for _ in 0..10_000 {
            let u = r.uniform(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&u));
        }
    }
}
