//! Fault-aware execution: the plain executors with every panic replaced by a
//! typed [`ExecError`] and every datapath guarded by the `sf-faults` hooks.
//!
//! The passes stream through [`crate::window::run_passes`] with
//! [`ChainFaults`] attached, so the one chain runner consults a
//! [`FaultInjector`] at each window-buffer cell and stream element (bit
//! flips, FIFO drops, duplicates and corruption) and a per-pass
//! [`sf_faults::Watchdog`] turns a wedged pipeline into
//! [`ExecError::Deadlock`]. **AXI bursts** — `AxiDelay`/`AxiFail` go
//! through the [`RetryPolicy`] backoff model: recovered bursts charge
//! their extra cycles to the [`CyclePlan`] (and telemetry), an exhausted
//! retry budget becomes [`ExecError::AxiExhausted`].
//!
//! With a [`FaultInjector::disabled`] injector the resilient executors are
//! bit-exact with the plain ones.

use crate::cycles::{self, CyclePlan};
use crate::design::{StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::{check_run, ExecError};
use crate::power;
use crate::report::SimReport;
use crate::window::{pass_sizes, run_passes, ChainFaults, Engine2D, Engine3D, Stage, Stamps};
use sf_faults::{AxiVerdict, FaultInjector, RetryPolicy};
use sf_mesh::{Batch2D, Batch3D, Element};
use sf_telemetry::Recorder;

/// A [`CyclePlan`] with the AXI fault/retry model applied.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultyPlan {
    /// The plan including retry backoff in `total_cycles`/`runtime_s`.
    pub plan: CyclePlan,
    /// Backoff cycles added by recovered bursts.
    pub extra_axi_cycles: u64,
    /// Bursts that failed and recovered via retry.
    pub bursts_recovered: u64,
    /// Total bursts the solve issues.
    pub bursts_total: u64,
}

/// Bursts actually walked through the injector; beyond this the sampled
/// backoff is scaled to the full burst population (keeps paper-scale
/// workloads plannable).
const MAX_BURST_WALK: u64 = 65_536;

/// [`cycles::plan`] with AXI faults: every burst (up to `MAX_BURST_WALK`,
/// then scaled) is pushed through the injector's retry model. Recovered
/// bursts add their backoff to the plan; an exhausted burst aborts with
/// [`ExecError::AxiExhausted`].
pub fn plan_with_faults(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
) -> Result<FaultyPlan, ExecError> {
    let mut plan = cycles::plan(dev, design, wl, niter);
    let bytes = plan.ext_read_bytes + plan.ext_write_bytes;
    let bursts_total = (bytes / dev.axi_burst_bytes as u64).max(1);
    let walk = bursts_total.min(MAX_BURST_WALK);
    let mut extra = 0u64;
    let mut recovered = 0u64;
    for b in 0..walk {
        match inj.axi_burst(b, policy) {
            AxiVerdict::Ok => {}
            AxiVerdict::Recovered { extra_cycles, .. } => {
                extra += extra_cycles;
                recovered += 1;
            }
            AxiVerdict::Exhausted { attempts } => {
                return Err(ExecError::AxiExhausted { burst: b, attempts })
            }
        }
    }
    if bursts_total > walk {
        extra = (extra as f64 * bursts_total as f64 / walk as f64) as u64;
    }
    plan.total_cycles += extra;
    plan.runtime_s = plan.total_cycles as f64 / design.freq_hz
        + plan.host_calls as f64 * dev.host_call_latency_s;
    Ok(FaultyPlan { plan, extra_axi_cycles: extra, bursts_recovered: recovered, bursts_total })
}

/// Watchdog budget for one pass: a full pass worth of cycles with no
/// forward progress means the pipeline is wedged.
pub(crate) fn pass_budget(design: &StencilDesign, stream_units: u64, unit_cycles: u64) -> u64 {
    unit_cycles * (stream_units + cycles::fill_units(design)) + design.pipeline_latency_cycles + 1
}

/// The dimension-agnostic fault-aware executor: streams the flat batch
/// `input` of workload `wl` as one stream through stages built by
/// `make_stage(k, stream_units, mesh_units)`, fault hooks attached and the
/// recorder left untraced.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resilient<T: Element, K, S: Stage<T>>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    make_stage: impl Fn(&K, usize, usize) -> S,
    input: &[T],
    wl: &Workload,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rec: &mut Recorder,
) -> Result<(Vec<T>, SimReport), ExecError> {
    check_run(design, wl, stages_per_iter.len(), niter, false)?;
    let fp = plan_with_faults(dev, design, wl, niter as u64, inj, policy)?;
    let (unit_len, mesh_units) = wl.stream_units();
    let units = wl.batch() * mesh_units;
    let unit_cycles = cycles::unit_cycles(dev, design, wl);
    let mut faults = ChainFaults::new(inj, pass_budget(design, units as u64, unit_cycles));
    let out = run_passes(
        input,
        unit_len,
        &pass_sizes(design, niter),
        stages_per_iter,
        |k| make_stage(k, units, mesh_units),
        &mut Recorder::disabled(),
        Stamps { prefix: "", base_cycle: 0, unit_cycles },
        Some(&mut faults),
    );
    let out = faults.result(out).map_err(|e| e.with_stalls(rec))?;

    rec.counter_add("fault.injected", inj.injected());
    rec.counter_add("fault.axi.extra_cycles", fp.extra_axi_cycles);
    rec.counter_add("fault.axi.recovered", fp.bursts_recovered);
    let report =
        SimReport::from_plan(design, &fp.plan, niter as u64, power::fpga_power_w(dev, design));
    Ok((out, report))
}

/// Fault-aware [`crate::exec2d::simulate_2d_exec`]: never panics on
/// datapath faults or shape mismatches, charges AXI retry backoff into the
/// report, and feeds `fault.*` counters into `rec`. Injection points and
/// watchdog behavior are the same for every engine.
///
/// # Errors
/// [`ExecError`] on a shape mismatch, an exhausted AXI retry budget or a
/// watchdog trip.
#[allow(clippy::too_many_arguments)]
pub fn simulate_2d_resilient_exec<T: Element, K, E: Engine2D<T, K>>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport), ExecError> {
    let (nx, ny, b) = (input.nx(), input.ny(), input.batch());
    let wl = Workload::D2 { nx, ny, batch: b };
    let make = |k: &K, units, mesh| engine.stage(k, nx, units, mesh);
    let flat = input.as_slice();
    let (out, report) =
        resilient(dev, design, stages_per_iter, make, flat, &wl, niter, inj, policy, rec)?;
    Ok((Batch2D::from_vec(nx, ny, b, out), report))
}

/// Fault-aware [`crate::exec3d::simulate_3d_exec`] (see
/// [`simulate_2d_resilient_exec`]); the streamed unit is a plane.
///
/// # Errors
/// See [`simulate_2d_resilient_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_3d_resilient_exec<T: Element, K, E: Engine3D<T, K>>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport), ExecError> {
    let (nx, ny, nz, b) = (input.nx(), input.ny(), input.nz(), input.batch());
    let wl = Workload::D3 { nx, ny, nz, batch: b };
    let make = |k: &K, units, mesh| engine.stage(k, nx, ny, units, mesh);
    let flat = input.as_slice();
    let (out, report) =
        resilient(dev, design, stages_per_iter, make, flat, &wl, niter, inj, policy, rec)?;
    Ok((Batch3D::from_vec(nx, ny, nz, b, out), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::window::ScalarEngine;
    use sf_faults::{FaultKind, FaultPlan};
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Mesh2D, Mesh3D};

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn design_2d(wl: &Workload, v: usize, p: usize) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), v, p, ExecMode::Baseline, MemKind::Hbm, wl)
            .unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn run_2d(
        plan: FaultPlan,
        niter: usize,
    ) -> (Result<(Batch2D<f32>, SimReport), ExecError>, Mesh2D<f32>, FaultInjector) {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = design_2d(&wl, 8, 4);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let mut inj = FaultInjector::new(plan);
        let policy = RetryPolicy::default();
        let mut rec = Recorder::disabled();
        let r = simulate_2d_resilient_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            niter,
            &mut inj,
            &policy,
            &mut rec,
        );
        (r, m, inj)
    }

    #[test]
    fn disabled_injector_is_bit_exact() {
        let (r, m, inj) = run_2d(FaultInjector::disabled().plan().to_owned(), 12);
        let (out, rep) = r.unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert!(rep.total_cycles > 0);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn bitflip_completes_but_diverges_from_reference() {
        let (r, m, inj) = run_2d(FaultPlan::single(42, FaultKind::BitFlip, 1_000_000), 12);
        let (out, _) = r.unwrap();
        assert_eq!(inj.injected(), 1, "single-fault plan injects exactly once");
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(
            !norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()),
            "a window-buffer bit flip must corrupt the result"
        );
    }

    #[test]
    fn fifo_drop_trips_the_watchdog() {
        let (r, _, inj) = run_2d(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000), 12);
        match r {
            Err(ExecError::Deadlock(trip)) => {
                assert!(trip.units_emitted < trip.units_expected);
                assert!(trip.to_string().contains("starved"), "{trip}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn fifo_dup_completes_but_diverges() {
        let (r, m, _) = run_2d(FaultPlan::single(3, FaultKind::FifoDup, 1_000_000), 12);
        let (out, _) = r.unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(!norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn fifo_corrupt_completes_but_diverges() {
        let (r, m, _) = run_2d(FaultPlan::single(5, FaultKind::FifoCorrupt, 1_000_000), 12);
        let (out, _) = r.unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(!norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn axi_delay_recovers_and_charges_extra_cycles() {
        let (clean, _, _) = run_2d(FaultInjector::disabled().plan().to_owned(), 12);
        let (_, clean_rep) = clean.unwrap();
        let (r, m, _) = run_2d(
            FaultPlan { seed: 9, kind: FaultKind::AxiDelay, rate_ppm: 500_000, max_injections: 0 },
            12,
        );
        let (out, rep) = r.unwrap();
        // Numerically untouched but measurably slower.
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert!(
            rep.total_cycles > clean_rep.total_cycles,
            "retry backoff must be visible in the plan: {} vs {}",
            rep.total_cycles,
            clean_rep.total_cycles
        );
    }

    #[test]
    fn axi_fail_exhausts_to_typed_error() {
        // 100 % failure rate over many bursts: some burst draws a failure
        // count above the retry budget.
        let (r, _, _) = run_2d(
            FaultPlan {
                seed: 11,
                kind: FaultKind::AxiFail,
                rate_ppm: 1_000_000,
                max_injections: 0,
            },
            12,
        );
        match r {
            Err(ExecError::AxiExhausted { attempts, .. }) => assert!(attempts > 0),
            other => panic!("expected AxiExhausted, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 4 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            2,
            ExecMode::Batched { b: 4 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::<f32>::zeros(16, 8, 3);
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::disabled();
        let r = simulate_2d_resilient_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            2,
            &mut inj,
            &RetryPolicy::default(),
            &mut rec,
        );
        assert!(matches!(r, Err(ExecError::ShapeMismatch { .. })), "{r:?}");
    }

    #[test]
    fn resilient_3d_bit_exact_without_faults() {
        let m = Mesh3D::<f32>::random(12, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let k = Jacobi3D::smoothing();
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::disabled();
        let (out, _) = simulate_3d_resilient_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[k],
            &batch,
            6,
            &mut inj,
            &RetryPolicy::default(),
            &mut rec,
        )
        .unwrap();
        let expect = reference::run_3d(&k, &m, 6);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn resilient_3d_drop_trips_watchdog() {
        let m = Mesh3D::<f32>::random(12, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let k = Jacobi3D::smoothing();
        let mut inj = FaultInjector::new(FaultPlan::single(13, FaultKind::FifoDrop, 1_000_000));
        let mut rec = Recorder::disabled();
        let r = simulate_3d_resilient_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[k],
            &batch,
            6,
            &mut inj,
            &RetryPolicy::default(),
            &mut rec,
        );
        assert!(matches!(r, Err(ExecError::Deadlock(_))), "{r:?}");
    }

    #[test]
    fn same_seed_reproduces_identical_fault_runs() {
        let plan = FaultPlan::single(42, FaultKind::BitFlip, 1_000_000);
        let (r1, _, i1) = run_2d(plan, 12);
        let (r2, _, i2) = run_2d(plan, 12);
        let (o1, _) = r1.unwrap();
        let (o2, _) = r2.unwrap();
        assert!(norms::bit_equal(o1.mesh(0).as_slice(), o2.mesh(0).as_slice()));
        assert_eq!(i1.log(), i2.log());
    }
}
