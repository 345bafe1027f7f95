//! One matrix over the executor entry points.
//!
//! Every executor streams through the same chain runner and pass loop
//! (`sf_fpga::window`), so every composition must agree with the golden
//! reference bit for bit. Each sampled case — a random 2D or 3D star
//! stencil on a ragged width (`nx % LANES ≠ 0`) with batch 1 or 2 — runs,
//! for each engine, the plain executor, the batch-parallel executor at
//! `jobs` 1 and 2, the resilient executor with a disabled injector, the
//! rollback-recoverable executor with a zero-rate fault plan and the
//! sharded executor on 1 and 2 devices. The runs that price the plain
//! schedule (plain, batch-parallel, resilient, one device) must also
//! report exactly the cycles of `cycles::plan`.

use proptest::prelude::*;
use sf_fpga::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
use sf_fpga::{
    cycles, fast, ExecEngine, FaultInjector, FaultKind, FaultPlan, FpgaDevice, Recorder,
    RecoveryConfig, RecoveryPolicy, RetryPolicy, SimReport,
};
use sf_kernels::{reference, StarStencil2D, StarStencil3D};
use sf_mesh::{norms, Batch2D, Batch3D};
use sf_multi::MultiConfig;
use sf_simd::LANES;

/// Input-mesh seed, independent of the sampled case.
const INPUT_SEED: u64 = 4_417_223;

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err(format!($($fmt)*));
        }
    };
}

/// Axis star of radius `r` with weights in eighths (exactly representable).
fn star_2d(r: usize, w: [i32; 3]) -> StarStencil2D {
    let f = |i: i32, d: i32| i as f32 / 8.0 / d as f32;
    let mut pts = vec![(0, 0, f(w[2], 1))];
    for d in 1..=r as i32 {
        pts.extend([
            (-d, 0, f(w[0], d)),
            (d, 0, f(w[0], d)),
            (0, -d, f(w[1], d)),
            (0, d, f(w[1], d)),
        ]);
    }
    StarStencil2D::new(pts)
}

fn star_3d(r: usize, w: [i32; 3]) -> StarStencil3D {
    let f = |i: i32, d: i32| i as f32 / 8.0 / d as f32;
    let mut pts = vec![(0, 0, 0, f(w[2], 1))];
    for d in 1..=r as i32 {
        for s in [-d, d] {
            pts.extend([(s, 0, 0, f(w[0], d)), (0, s, 0, f(w[1], d)), (0, 0, s, f(w[1], d))]);
        }
    }
    StarStencil3D::new(pts)
}

fn faultless() -> FaultPlan {
    FaultPlan { seed: 1, kind: FaultKind::FifoDrop, rate_ppm: 0, max_injections: 0 }
}

fn rollback() -> RecoveryConfig {
    RecoveryConfig {
        policy: RecoveryPolicy::Rollback { max_retries: 2 },
        checkpoint_every: 2,
        ..RecoveryConfig::default()
    }
}

/// The design for a sampled case, or `None` when it does not synthesize.
fn design(
    spec: &sf_kernels::StencilSpec,
    wl: &Workload,
    v: usize,
    p: usize,
) -> Option<StencilDesign> {
    let b = wl.batch();
    let mode = if b > 1 { ExecMode::Batched { b } } else { ExecMode::Baseline };
    synthesize(&FpgaDevice::u280(), spec, v, p, mode, MemKind::Hbm, wl).ok()
}

/// Check one executor's output against the golden cells and, when
/// `plan_cycles` is given, its report against the plan.
fn agree(
    what: &str,
    out: &[f32],
    golden: &[f32],
    rep: &SimReport,
    plan_cycles: Option<u64>,
) -> Result<(), String> {
    ensure!(
        norms::bit_equal(out, golden),
        "{what}: output differs from the reference at {:?}",
        norms::first_mismatch(out, golden)
    );
    if let Some(c) = plan_cycles {
        ensure!(rep.total_cycles == c, "{what}: {} cycles, plan says {c}", rep.total_cycles);
    }
    Ok(())
}

/// The 2D matrix; `Ok(false)` when the case does not synthesize.
fn matrix_2d(
    k: &StarStencil2D,
    (nx, ny, batch): (usize, usize, usize),
    v: usize,
    p: usize,
    niter: usize,
) -> Result<bool, String> {
    let wl = Workload::D2 { nx, ny, batch };
    let Some(ds) = design(&k.spec(), &wl, v, p) else { return Ok(false) };
    let dev = FpgaDevice::u280();
    let ks = std::slice::from_ref(k);
    let input = Batch2D::<f32>::random(nx, ny, batch, INPUT_SEED, -1.0, 1.0);
    let golden = reference::run_batch_2d(k, &input, niter);
    let g = golden.as_slice();
    let plan = Some(cycles::plan(&dev, &ds, &wl, niter as u64).total_cycles);
    let off = &mut Recorder::disabled();
    for e in [ExecEngine::Scalar, ExecEngine::Fast] {
        let (o, r) = fast::simulate_2d_exec(e, &dev, &ds, ks, &input, niter, off);
        agree(&format!("{e} plain"), o.as_slice(), g, &r, plan)?;
        for jobs in [1, 2] {
            let (o, r) =
                fast::simulate_batch_2d_parallel_exec(e, &dev, &ds, ks, &input, niter, jobs, off);
            agree(&format!("{e} batch jobs={jobs}"), o.as_slice(), g, &r, plan)?;
        }
        let policy = RetryPolicy::default();
        let mut inj = FaultInjector::disabled();
        let (o, r) = fast::simulate_2d_resilient_exec(
            e, &dev, &ds, ks, &input, niter, &mut inj, &policy, off,
        )
        .map_err(|err| format!("{e} resilient: {err}"))?;
        agree(&format!("{e} resilient"), o.as_slice(), g, &r, plan)?;
        let mut inj = FaultInjector::new(faultless());
        let (o, r, _) = fast::simulate_2d_recoverable_exec(
            e,
            &dev,
            &ds,
            ks,
            &input,
            niter,
            &mut inj,
            &policy,
            &rollback(),
            off,
        )
        .map_err(|err| format!("{e} rollback: {err}"))?;
        agree(&format!("{e} rollback"), o.as_slice(), g, &r, None)?;
        for devices in [1, 2] {
            let cfg = MultiConfig::new(devices);
            let (o, r) = sf_multi::simulate_batch_2d_sharded_exec(
                e, &dev, &ds, ks, &input, niter, &cfg, 2, off,
            )
            .map_err(|err| format!("{e} sharded K={devices}: {err}"))?;
            let priced = if devices == 1 { plan } else { None };
            agree(&format!("{e} sharded K={devices}"), o.as_slice(), g, &r, priced)?;
        }
    }
    Ok(true)
}

/// The 3D matrix; `Ok(false)` when the case does not synthesize.
fn matrix_3d(
    k: &StarStencil3D,
    (nx, ny, nz, batch): (usize, usize, usize, usize),
    v: usize,
    p: usize,
    niter: usize,
) -> Result<bool, String> {
    let wl = Workload::D3 { nx, ny, nz, batch };
    let Some(ds) = design(&k.spec(), &wl, v, p) else { return Ok(false) };
    let dev = FpgaDevice::u280();
    let ks = std::slice::from_ref(k);
    let input = Batch3D::<f32>::random(nx, ny, nz, batch, INPUT_SEED, -1.0, 1.0);
    let golden = reference::run_batch_3d(k, &input, niter);
    let g = golden.as_slice();
    let plan = Some(cycles::plan(&dev, &ds, &wl, niter as u64).total_cycles);
    let off = &mut Recorder::disabled();
    for e in [ExecEngine::Scalar, ExecEngine::Fast] {
        let (o, r) = fast::simulate_3d_exec(e, &dev, &ds, ks, &input, niter, off);
        agree(&format!("{e} plain"), o.as_slice(), g, &r, plan)?;
        for jobs in [1, 2] {
            let (o, r) =
                fast::simulate_batch_3d_parallel_exec(e, &dev, &ds, ks, &input, niter, jobs, off);
            agree(&format!("{e} batch jobs={jobs}"), o.as_slice(), g, &r, plan)?;
        }
        let policy = RetryPolicy::default();
        let mut inj = FaultInjector::disabled();
        let (o, r) = fast::simulate_3d_resilient_exec(
            e, &dev, &ds, ks, &input, niter, &mut inj, &policy, off,
        )
        .map_err(|err| format!("{e} resilient: {err}"))?;
        agree(&format!("{e} resilient"), o.as_slice(), g, &r, plan)?;
        let mut inj = FaultInjector::new(faultless());
        let (o, r, _) = fast::simulate_3d_recoverable_exec(
            e,
            &dev,
            &ds,
            ks,
            &input,
            niter,
            &mut inj,
            &policy,
            &rollback(),
            off,
        )
        .map_err(|err| format!("{e} rollback: {err}"))?;
        agree(&format!("{e} rollback"), o.as_slice(), g, &r, None)?;
        for devices in [1, 2] {
            let cfg = MultiConfig::new(devices);
            let (o, r) = sf_multi::simulate_batch_3d_sharded_exec(
                e, &dev, &ds, ks, &input, niter, &cfg, 2, off,
            )
            .map_err(|err| format!("{e} sharded K={devices}: {err}"))?;
            let priced = if devices == 1 { plan } else { None };
            agree(&format!("{e} sharded K={devices}"), o.as_slice(), g, &r, priced)?;
        }
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every executor × engine × jobs × devices × recovery composition is
    /// bit-equal to the golden reference.
    #[test]
    fn every_executor_matches_the_reference(
        dims in 2usize..4,
        r in 1usize..3,
        w0 in -8i32..9,
        w1 in -8i32..9,
        w2 in -8i32..9,
        lane_blocks in 1usize..3,
        ragged in 1usize..LANES,
        ny in 5usize..9,
        nz in 5usize..8,
        batch in 1usize..3,
        vi in 0usize..4,
        p in 1usize..4,
        niter in 1usize..6,
    ) {
        let nx = lane_blocks * LANES + ragged;
        let v = [1, 2, 4, 8][vi];
        let res = if dims == 3 {
            matrix_3d(&star_3d(r, [w0, w1, w2]), (nx, ny, nz, batch), v, p, niter)
        } else {
            matrix_2d(&star_2d(r, [w0, w1, w2]), (nx, ny, batch), v, p, niter)
        };
        prop_assert!(res.is_ok(), "{}", res.as_ref().err().cloned().unwrap_or_default());
        prop_assume!(matches!(res, Ok(true)));
    }
}
