//! Recoverable execution: checkpoint/rollback with ABFT detection layered
//! over the resilient executors.
//!
//! The temporal-batch loop of [`crate::resilient::simulate_2d_resilient_exec`]
//! already advances the solve `p_eff` iterations per pipeline pass; this
//! module groups passes into **checkpoint segments** of
//! [`RecoveryConfig::checkpoint_every`] passes. Per segment:
//!
//! 1. the segment is executed through the one pass loop
//!    ([`crate::window::run_passes`]) with fault hooks attached;
//! 2. an [`AbftSignature`] (block row/column sums) of the segment output
//!    is compared against the signature of the reference-propagated state
//!    from the last verified checkpoint — silent data corruption the
//!    FIFO/AXI checks miss shows up here as `fault.sdc_detected`;
//! 3. on an ABFT mismatch *or* a watchdog deadlock, the last checkpoint
//!    is restored from the in-memory [`CheckpointRing`] (its content
//!    checksum re-verified) and only the lost passes are recomputed, up
//!    to [`RecoveryPolicy::Rollback`]'s `max_retries` per segment;
//! 4. on success the new state is checkpointed (and optionally spilled
//!    to the versioned on-disk format).
//!
//! **Cost model.** Checkpoint writes are charged at the external-memory
//! write bandwidth of eq. 4 (`bytes / (BW/f)` cycles), ABFT checks at one
//! vector per cycle, and rollback replay at the plan's per-pass cycle
//! cost. All three are added to the [`CyclePlan`]'s total and attributed
//! to the dedicated [`StallClass::Checkpoint`] telemetry class, so the
//! overhead-vs-MTTR tradeoff of the checkpoint interval is directly
//! visible in the flat-metrics JSON and in cross-run `RunRecord`s.
//!
//! Determinism: the fault injector's RNG advances exactly once per
//! opportunity, replays re-consult it (a single-injection plan is clean
//! on replay — its budget is spent), and the batch-parallel variants
//! derive per-mesh injector seeds by index, so outputs, stats and
//! telemetry are byte-identical for any `--jobs` value and reproducible
//! per seed.
//!
//! [`CyclePlan`]: crate::cycles::CyclePlan

use crate::cycles;
use crate::design::{MemKind, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::{check_run, ExecError};
use crate::power;
use crate::report::SimReport;
use crate::resilient::{pass_budget, plan_with_faults, resilient, FaultyPlan};
use crate::window::{pass_sizes, run_passes, ChainFaults, Engine2D, Engine3D, Stage, Stamps};
use sf_faults::{FaultInjector, FaultPlan, RetryPolicy};
use sf_kernels::{reference, StencilOp2D, StencilOp3D};
use sf_mesh::{Batch2D, Batch3D, Element, Mesh2D, Mesh3D};
use sf_recover::{
    abft_check_cycles, spill, AbftSignature, CheckpointRing, RecoveryConfig, RecoveryPolicy,
    RecoveryStats, Snapshot,
};
use sf_telemetry::{Recorder, StallClass};
use std::path::PathBuf;

/// Cycles to write `bytes` of checkpoint state through the design's
/// external memory at eq. 4 write bandwidth.
pub fn checkpoint_cost_cycles(dev: &FpgaDevice, design: &StencilDesign, bytes: u64) -> u64 {
    let mem = match design.mem {
        MemKind::Hbm => &dev.hbm,
        MemKind::Ddr4 => &dev.ddr4,
    };
    let bytes_per_cycle = mem.total_bw() / design.freq_hz;
    if bytes_per_cycle <= 0.0 {
        return bytes;
    }
    (bytes as f64 / bytes_per_cycle).ceil() as u64
}

/// Per-stream recovery parameters: the checkpoint policy plus the stream
/// geometry and costs of one recovered stream (a whole batch for the
/// single-stream executor, one mesh for the batch-parallel path).
struct RecoverParams {
    /// Passes per checkpoint segment.
    interval: usize,
    /// Rollback attempts allowed per segment.
    max_retries: u32,
    /// Snapshots retained in memory.
    ring_capacity: usize,
    /// ABFT comparison tolerance.
    abft_tol: f64,
    /// Spill directory (optional) and file-name prefix for this stream.
    spill_dir: Option<PathBuf>,
    spill_prefix: String,
    /// Mesh extents and batch factor recorded in each snapshot.
    dims: Vec<u64>,
    batch: u64,
    /// Cells per stream unit (row or plane), also the ABFT block width.
    unit_len: usize,
    /// Cycles per stream unit.
    unit_cycles: u64,
    /// Watchdog budget of one pass.
    budget: u64,
    /// Stream size in bytes, the cost basis of a checkpoint write.
    bytes: u64,
    /// Cycles charged per checkpoint write.
    ckpt_cost: u64,
    /// Cycles charged per ABFT check.
    abft_cost: u64,
    /// Replay cost of one pipeline pass.
    pass_cycles: u64,
}

impl RecoverParams {
    fn new<T: Element>(
        dev: &FpgaDevice,
        design: &StencilDesign,
        wl: &Workload,
        rcfg: &RecoveryConfig,
        max_retries: u32,
        spill_prefix: String,
    ) -> RecoverParams {
        let (unit_len, mesh_units) = wl.stream_units();
        let unit_cycles = cycles::unit_cycles(dev, design, wl);
        let budget = pass_budget(design, (wl.batch() * mesh_units) as u64, unit_cycles);
        let cells = wl.total_cells();
        let bytes = cells * T::size_bytes() as u64;
        let dims = match *wl {
            Workload::D2 { nx, ny, .. } => vec![nx as u64, ny as u64],
            Workload::D3 { nx, ny, nz, .. } => vec![nx as u64, ny as u64, nz as u64],
        };
        RecoverParams {
            interval: rcfg.checkpoint_every.max(1),
            max_retries,
            ring_capacity: rcfg.ring_capacity,
            abft_tol: rcfg.abft_tol,
            spill_dir: rcfg.spill_dir.clone(),
            spill_prefix,
            dims,
            batch: wl.batch() as u64,
            unit_len,
            unit_cycles,
            budget,
            bytes,
            ckpt_cost: checkpoint_cost_cycles(dev, design, bytes),
            abft_cost: abft_check_cycles(cells, design.v),
            pass_cycles: budget.saturating_sub(1),
        }
    }

    /// Capture (and optionally spill) a checkpoint, charging its cost.
    fn take_checkpoint<T: Element>(
        &self,
        ring: &mut CheckpointRing,
        stats: &mut RecoveryStats,
        cells: &[T],
        iters_done: u64,
        passes_done: u64,
    ) -> Result<(), ExecError> {
        let snap = Snapshot::capture(iters_done, passes_done, &self.dims, self.batch, cells);
        if let Some(dir) = &self.spill_dir {
            let path = dir.join(format!("{}ckpt_{passes_done:06}.sfckpt", self.spill_prefix));
            spill::write_file(&path, &snap)
                .map_err(|e| ExecError::Checkpoint { detail: e.to_string() })?;
        }
        ring.push(snap);
        stats.checkpoints_taken += 1;
        stats.checkpoint_cycles += self.ckpt_cost;
        Ok(())
    }

    /// Restore the most recent checkpoint into `cells` after a detection.
    fn rollback<T: Element>(
        &self,
        ring: &CheckpointRing,
        cells: &mut [T],
        rollbacks: u32,
    ) -> Result<(), ExecError> {
        let snap = ring.latest().ok_or_else(|| ExecError::Checkpoint {
            detail: "rollback requested with no retained checkpoint".to_string(),
        })?;
        let restored: Vec<T> = snap
            .restore(cells.len())
            .map_err(|e| ExecError::Checkpoint { detail: format!("rollback {rollbacks}: {e}") })?;
        cells.copy_from_slice(&restored);
        Ok(())
    }
}

/// Scalar golden reference of a flat 2D batch (`nx × ny` meshes, all
/// stages per iteration) — the expected side of the ABFT comparison.
fn reference_2d<T: Element, K: StencilOp2D<T>>(
    stages: &[K],
    (nx, ny): (usize, usize),
    cells: &[T],
    iters: usize,
) -> Vec<T> {
    let meshes: Vec<Mesh2D<T>> = cells
        .chunks(nx * ny)
        .map(|m| {
            let mesh = Mesh2D::from_fn(nx, ny, |x, y| m[y * nx + x]);
            reference::run_stages_2d(stages, &mesh, iters)
        })
        .collect();
    Batch2D::from_meshes(&meshes).into_vec()
}

/// 3D twin of [`reference_2d`].
fn reference_3d<T: Element, K: StencilOp3D<T>>(
    stages: &[K],
    (nx, ny, nz): (usize, usize, usize),
    cells: &[T],
    iters: usize,
) -> Vec<T> {
    let meshes: Vec<Mesh3D<T>> = cells
        .chunks(nx * ny * nz)
        .map(|m| {
            let mesh = Mesh3D::from_fn(nx, ny, nz, |x, y, z| m[(z * ny + y) * nx + x]);
            reference::run_stages_3d(stages, &mesh, iters)
        })
        .collect();
    Batch3D::from_meshes(&meshes).into_vec()
}

/// The checkpoint/ABFT/rollback loop over one stream (a whole batch for
/// the single-stream executor; one mesh for the batch-parallel path).
/// `reference(cells, iters)` propagates a verified state with the scalar
/// golden reference, so every engine is checked against the same
/// signatures.
#[allow(clippy::too_many_arguments)]
fn recover_core<T: Element, K, S: Stage<T>>(
    design: &StencilDesign,
    stages: &[K],
    make_stage: impl Fn(&K) -> S,
    input: &[T],
    niter: usize,
    inj: &mut FaultInjector,
    prm: &RecoverParams,
    reference: impl Fn(&[T], usize) -> Vec<T>,
) -> Result<(Vec<T>, RecoveryStats), ExecError> {
    let mut stats = RecoveryStats::default();
    let mut ring = CheckpointRing::new(prm.ring_capacity);
    let mut verified = input.to_vec();
    let mut done = 0usize;
    let mut passes_done = 0u64;
    prm.take_checkpoint(&mut ring, &mut stats, &verified, 0, 0)?;
    let at = Stamps { prefix: "", base_cycle: 0, unit_cycles: prm.unit_cycles };

    for seg in pass_sizes(design, niter).chunks(prm.interval) {
        let seg_iters: usize = seg.iter().sum();
        let seg_replay_cycles = seg.len() as u64 * prm.pass_cycles;
        let expected_sig = AbftSignature::compute(&reference(&verified, seg_iters), prm.unit_len);

        let mut attempt = 0u32;
        let state = loop {
            let mut faults = ChainFaults::new(inj, prm.budget);
            let mut off = Recorder::disabled();
            let out = run_passes(
                &verified,
                prm.unit_len,
                seg,
                stages,
                &make_stage,
                &mut off,
                at,
                Some(&mut faults),
            );
            match faults.result(out) {
                Ok(state) => {
                    stats.abft_checks += 1;
                    stats.abft_cycles += prm.abft_cost;
                    let sig = AbftSignature::compute(&state, prm.unit_len);
                    if sig.matches(&expected_sig, prm.abft_tol) {
                        break state;
                    }
                    stats.sdc_detected += 1;
                    if attempt >= prm.max_retries {
                        return Err(ExecError::RecoveryExhausted {
                            rollbacks: attempt,
                            detail: format!(
                                "ABFT signature mismatch persisted at iteration {done}"
                            ),
                        });
                    }
                }
                Err(ExecError::Deadlock(trip)) => {
                    if attempt >= prm.max_retries {
                        return Err(ExecError::Deadlock(trip));
                    }
                }
                Err(other) => return Err(other),
            }
            attempt += 1;
            stats.rollbacks += 1;
            stats.batches_replayed += seg.len() as u64;
            stats.recovery_cycles += seg_replay_cycles;
            prm.rollback(&ring, &mut verified, attempt)?;
        };
        verified = state;
        done += seg_iters;
        passes_done += seg.len() as u64;
        prm.take_checkpoint(&mut ring, &mut stats, &verified, done as u64, passes_done)?;
    }
    Ok((verified, stats))
}

/// Fold recovery stats into the plan, the recorder and the report;
/// `ckpt_bytes` is the size of one checkpoint write.
#[allow(clippy::too_many_arguments)]
fn finalize(
    dev: &FpgaDevice,
    design: &StencilDesign,
    fp: FaultyPlan,
    niter: u64,
    ckpt_bytes: u64,
    stats: &RecoveryStats,
    injected: u64,
    rec: &mut Recorder,
) -> SimReport {
    let mut plan = fp.plan;
    let overhead = stats.overhead_cycles();
    plan.total_cycles += overhead;
    plan.ext_write_bytes += stats.checkpoints_taken * ckpt_bytes;
    plan.runtime_s = plan.total_cycles as f64 / design.freq_hz
        + plan.host_calls as f64 * dev.host_call_latency_s;
    rec.stall(StallClass::Checkpoint, overhead);
    rec.counter_add("fault.injected", injected);
    rec.counter_add("fault.axi.extra_cycles", fp.extra_axi_cycles);
    rec.counter_add("fault.axi.recovered", fp.bursts_recovered);
    rec.counter_add("fault.sdc_detected", stats.sdc_detected);
    rec.counter_add("recover.checkpoints", stats.checkpoints_taken);
    rec.counter_add("recover.checkpoint_cycles", stats.checkpoint_cycles);
    rec.counter_add("recover.abft_checks", stats.abft_checks);
    rec.counter_add("recover.abft_cycles", stats.abft_cycles);
    rec.counter_add("recover.rollbacks", stats.rollbacks);
    rec.counter_add("recover.batches_replayed", stats.batches_replayed);
    rec.counter_add("recover.recovery_cycles", stats.recovery_cycles);
    rec.counter_add("recover.mean_cycles_to_recovery", stats.mean_cycles_to_recovery());
    SimReport::from_plan(design, &plan, niter, power::fpga_power_w(dev, design))
}

/// Retry budget of a policy; `None` means the policy is [`RecoveryPolicy::Rerun`].
fn rollback_budget(policy: RecoveryPolicy) -> Option<u32> {
    match policy {
        RecoveryPolicy::Rerun => None,
        RecoveryPolicy::Rollback { max_retries } => Some(max_retries),
    }
}

/// The dimension-agnostic single-stream recoverable executor over the
/// flat batch `input` of workload `wl`: stages come from
/// `make_stage(k, stream_units, mesh_units)`, the ABFT expected side from
/// `reference`.
#[allow(clippy::too_many_arguments)]
fn recoverable<T: Element, K, S: Stage<T>>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    make_stage: impl Fn(&K, usize, usize) -> S,
    input: &[T],
    wl: &Workload,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
    reference: impl Fn(&[T], usize) -> Vec<T>,
) -> Result<(Vec<T>, SimReport, RecoveryStats), ExecError> {
    let Some(max_retries) = rollback_budget(rcfg.policy) else {
        let (out, rep) = resilient(
            dev,
            design,
            stages_per_iter,
            make_stage,
            input,
            wl,
            niter,
            inj,
            policy,
            rec,
        )?;
        return Ok((out, rep, RecoveryStats::default()));
    };
    check_run(design, wl, stages_per_iter.len(), niter, false)?;
    let fp = plan_with_faults(dev, design, wl, niter as u64, inj, policy)?;
    let prm = RecoverParams::new::<T>(dev, design, wl, rcfg, max_retries, String::new());
    let mesh_units = wl.stream_units().1;
    let make = |k: &K| make_stage(k, wl.batch() * mesh_units, mesh_units);
    let (out, stats) =
        recover_core(design, stages_per_iter, make, input, niter, inj, &prm, reference)
            .map_err(|e| e.with_stalls(rec))?;
    let report = finalize(dev, design, fp, niter as u64, prm.bytes, &stats, inj.injected(), rec);
    Ok((out, report, stats))
}

/// Checkpoint/rollback variant of
/// [`crate::resilient::simulate_2d_resilient_exec`].
///
/// With [`RecoveryPolicy::Rerun`] this *is* the resilient executor (plus
/// an empty [`RecoveryStats`]): detections surface to the caller exactly
/// as before. With [`RecoveryPolicy::Rollback`] the run checkpoints every
/// [`RecoveryConfig::checkpoint_every`] passes, verifies each segment
/// with an ABFT signature, and rolls back/replays on watchdog or ABFT
/// detection — returning the recovered result plus the accounting. The
/// segment replay goes through `engine`; the ABFT expected side always
/// uses the scalar golden reference, so every engine is verified against
/// the same signatures.
///
/// # Errors
/// The resilient executor's errors, plus [`ExecError::RecoveryExhausted`]
/// and [`ExecError::Checkpoint`] from the rollback loop.
#[allow(clippy::too_many_arguments)]
pub fn simulate_2d_recoverable_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport, RecoveryStats), ExecError>
where
    T: Element,
    K: StencilOp2D<T>,
    E: Engine2D<T, K>,
{
    let (nx, ny, b) = (input.nx(), input.ny(), input.batch());
    let wl = Workload::D2 { nx, ny, batch: b };
    let (out, report, stats) = recoverable(
        dev,
        design,
        stages_per_iter,
        |k, units, mesh| engine.stage(k, nx, units, mesh),
        input.as_slice(),
        &wl,
        niter,
        inj,
        policy,
        rcfg,
        rec,
        |cells, iters| reference_2d(stages_per_iter, (nx, ny), cells, iters),
    )?;
    Ok((Batch2D::from_vec(nx, ny, b, out), report, stats))
}

/// 3D twin of [`simulate_2d_recoverable_exec`]; the streamed unit is a
/// plane.
///
/// # Errors
/// See [`simulate_2d_recoverable_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_3d_recoverable_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport, RecoveryStats), ExecError>
where
    T: Element,
    K: StencilOp3D<T>,
    E: Engine3D<T, K>,
{
    let (nx, ny, nz, b) = (input.nx(), input.ny(), input.nz(), input.batch());
    let wl = Workload::D3 { nx, ny, nz, batch: b };
    let (out, report, stats) = recoverable(
        dev,
        design,
        stages_per_iter,
        |k, units, mesh| engine.stage(k, nx, ny, units, mesh),
        input.as_slice(),
        &wl,
        niter,
        inj,
        policy,
        rcfg,
        rec,
        |cells, iters| reference_3d(stages_per_iter, (nx, ny, nz), cells, iters),
    )?;
    Ok((Batch3D::from_vec(nx, ny, nz, b, out), report, stats))
}

/// SplitMix64 finalizer used to derive independent per-mesh fault seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-mesh fault plan for the batch-parallel paths: same kind, rate and
/// injection budget, seed derived from the base seed and the mesh index.
pub fn derive_mesh_plan(base: &FaultPlan, mesh_index: usize) -> FaultPlan {
    FaultPlan {
        seed: mix(base.seed ^ (mesh_index as u64).wrapping_mul(0xa076_1d64_78bd_642f)),
        ..*base
    }
}

/// The dimension-agnostic batch-parallel recoverable executor: every mesh
/// of the flat batch `input` runs [`recover_core`] as one work item with
/// its own derived injector; stages come from `make_stage(k, mesh_units)`.
#[allow(clippy::too_many_arguments)]
fn batch_recoverable<T: Element, K: Sync, S: Stage<T>>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    make_stage: impl Fn(&K, usize) -> S + Sync,
    input: &[T],
    wl: &Workload,
    niter: usize,
    base_plan: &FaultPlan,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    jobs: usize,
    rec: &mut Recorder,
    reference: impl Fn(&[T], usize) -> Vec<T> + Sync,
) -> Result<(Vec<T>, SimReport, RecoveryStats), ExecError> {
    let Some(max_retries) = rollback_budget(rcfg.policy) else {
        return Err(ExecError::Unsupported {
            detail: "batch-parallel recovery requires the rollback policy".to_string(),
        });
    };
    check_run(design, wl, stages_per_iter.len(), niter, false)?;
    let mut axi_inj = FaultInjector::new(*base_plan);
    let fp = plan_with_faults(dev, design, wl, niter as u64, &mut axi_inj, policy)?;
    let mesh_wl = wl.with_batch(1);
    let mesh_units = wl.stream_units().1;

    let meshes: Vec<&[T]> = input.chunks(wl.cells() as usize).collect();
    let results = sf_par::par_map(jobs, meshes, |i, mesh| {
        let mut inj = FaultInjector::new(derive_mesh_plan(base_plan, i));
        let prm =
            RecoverParams::new::<T>(dev, design, &mesh_wl, rcfg, max_retries, format!("mesh{i}_"));
        let make = |k: &K| make_stage(k, mesh_units);
        let r =
            recover_core(design, stages_per_iter, make, mesh, niter, &mut inj, &prm, &reference);
        (r, inj.injected())
    });

    let mut out = Vec::with_capacity(input.len());
    let mut stats = RecoveryStats::default();
    let mut injected = axi_inj.injected();
    for (r, inj_n) in results {
        let (mesh_out, mesh_stats) = r.map_err(|e| e.with_stalls(rec))?;
        out.extend_from_slice(&mesh_out);
        stats.merge(&mesh_stats);
        injected += inj_n;
    }
    let mesh_bytes = wl.cells() * T::size_bytes() as u64;
    let report = finalize(dev, design, fp, niter as u64, mesh_bytes, &stats, injected, rec);
    Ok((out, report, stats))
}

/// Checkpoint/rollback variant of
/// [`crate::exec_batch::simulate_batch_2d_parallel_exec`]: each batch
/// member runs its own checkpoint/ABFT/rollback loop as one work item for
/// [`sf_par::par_map`], with a fault injector seeded from `base_plan` and
/// the mesh index. AXI faults are applied once at the batched plan level
/// (they model the shared memory interface, not a member stream).
///
/// Output, stats and report are byte-identical for every `jobs` value.
///
/// # Errors
/// See [`simulate_2d_recoverable_exec`]; [`ExecError::Unsupported`] under
/// [`RecoveryPolicy::Rerun`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_recoverable_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    base_plan: &FaultPlan,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport, RecoveryStats), ExecError>
where
    T: Element,
    K: StencilOp2D<T>,
    E: Engine2D<T, K> + Sync,
{
    let (nx, ny, b) = (input.nx(), input.ny(), input.batch());
    let wl = Workload::D2 { nx, ny, batch: b };
    let (out, report, stats) = batch_recoverable(
        dev,
        design,
        stages_per_iter,
        |k, mesh| engine.stage(k, nx, mesh, mesh),
        input.as_slice(),
        &wl,
        niter,
        base_plan,
        policy,
        rcfg,
        jobs,
        rec,
        |cells, iters| reference_2d(stages_per_iter, (nx, ny), cells, iters),
    )?;
    Ok((Batch2D::from_vec(nx, ny, b, out), report, stats))
}

/// 3D twin of [`simulate_batch_2d_recoverable_exec`].
///
/// # Errors
/// See [`simulate_batch_2d_recoverable_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_recoverable_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    base_plan: &FaultPlan,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport, RecoveryStats), ExecError>
where
    T: Element,
    K: StencilOp3D<T>,
    E: Engine3D<T, K> + Sync,
{
    let (nx, ny, nz, b) = (input.nx(), input.ny(), input.nz(), input.batch());
    let wl = Workload::D3 { nx, ny, nz, batch: b };
    let (out, report, stats) = batch_recoverable(
        dev,
        design,
        stages_per_iter,
        |k, mesh| engine.stage(k, nx, ny, mesh, mesh),
        input.as_slice(),
        &wl,
        niter,
        base_plan,
        policy,
        rcfg,
        jobs,
        rec,
        |cells, iters| reference_3d(stages_per_iter, (nx, ny, nz), cells, iters),
    )?;
    Ok((Batch3D::from_vec(nx, ny, nz, b, out), report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::window::ScalarEngine;
    use sf_faults::FaultKind;
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::norms;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn poisson_setup() -> (StencilDesign, Batch2D<f32>, Mesh2D<f32>) {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        (ds, batch, m)
    }

    fn rollback_cfg(every: usize) -> RecoveryConfig {
        RecoveryConfig {
            policy: RecoveryPolicy::Rollback { max_retries: 3 },
            checkpoint_every: every,
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn clean_run_matches_reference_and_charges_overhead() {
        let (ds, batch, m) = poisson_setup();
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::enabled(300.0);
        let (out, rep, stats) = simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut inj,
            &RetryPolicy::default(),
            &rollback_cfg(2),
            &mut rec,
        )
        .unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.sdc_detected, 0);
        // 12 iters at p=4 → 3 passes → 2 segments; initial + 2 checkpoints.
        assert_eq!(stats.checkpoints_taken, 3);
        assert_eq!(stats.abft_checks, 2);
        assert!(stats.checkpoint_cycles > 0 && stats.abft_cycles > 0);
        assert_eq!(rec.stall_breakdown().checkpoint_cycles, stats.overhead_cycles());
        assert!(rep.total_cycles > 0);
    }

    #[test]
    fn bitflip_is_detected_by_abft_and_rolled_back() {
        let (ds, batch, m) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(42, FaultKind::BitFlip, 1_000_000));
        let mut rec = Recorder::enabled(300.0);
        let (out, _, stats) = simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut inj,
            &RetryPolicy::default(),
            &rollback_cfg(4),
            &mut rec,
        )
        .unwrap();
        assert_eq!(inj.injected(), 1);
        assert_eq!(stats.sdc_detected, 1, "ABFT must catch the silent corruption");
        assert_eq!(stats.rollbacks, 1);
        assert!(stats.recovery_cycles > 0);
        assert_eq!(stats.mean_cycles_to_recovery(), stats.recovery_cycles);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(
            norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()),
            "post-rollback result must be bit-exact with the reference"
        );
        assert_eq!(rec.counter("fault.sdc_detected"), 1);
        assert_eq!(rec.counter("recover.rollbacks"), 1);
    }

    #[test]
    fn recovery_counters_reach_the_flat_metrics_json() {
        // The ISSUE acceptance criterion: recovery overhead and
        // mean-cycles-to-recovery must be visible in the flat-metrics JSON
        // a recoverable run's recorder produces.
        let (ds, batch, _) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(42, FaultKind::BitFlip, 1_000_000));
        let mut rec = Recorder::enabled(300.0);
        let (_, _, stats) = simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut inj,
            &RetryPolicy::default(),
            &rollback_cfg(4),
            &mut rec,
        )
        .unwrap();
        let doc = sf_telemetry::metrics::metrics(&rec);
        let counters = doc.get("counters").expect("counters block");
        let counter = |k: &str| counters.get(k).and_then(serde::Value::as_u64);
        assert_eq!(counter("recover.checkpoints"), Some(stats.checkpoints_taken));
        assert_eq!(counter("recover.rollbacks"), Some(stats.rollbacks));
        assert_eq!(counter("recover.recovery_cycles"), Some(stats.recovery_cycles));
        assert_eq!(
            counter("recover.mean_cycles_to_recovery"),
            Some(stats.mean_cycles_to_recovery())
        );
        assert_eq!(counter("fault.sdc_detected"), Some(stats.sdc_detected));
        let stalls = doc.get("stalls").expect("stalls block");
        assert_eq!(
            stalls.get("checkpoint_cycles").and_then(serde::Value::as_u64),
            Some(stats.overhead_cycles()),
            "checkpoint overhead must be attributed as its own stall class"
        );
    }

    #[test]
    fn fifo_drop_deadlock_is_rolled_back() {
        let (ds, batch, m) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000));
        let mut rec = Recorder::disabled();
        let (out, _, stats) = simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut inj,
            &RetryPolicy::default(),
            &rollback_cfg(4),
            &mut rec,
        )
        .unwrap();
        assert_eq!(stats.rollbacks, 1, "watchdog trip must trigger a rollback, not an error");
        assert_eq!(stats.sdc_detected, 0);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn rerun_policy_delegates_to_resilient_behavior() {
        let (ds, batch, _) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000));
        let mut rec = Recorder::disabled();
        let cfg = RecoveryConfig { policy: RecoveryPolicy::Rerun, ..RecoveryConfig::default() };
        let r = simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut inj,
            &RetryPolicy::default(),
            &cfg,
            &mut rec,
        );
        assert!(matches!(r, Err(ExecError::Deadlock(_))), "{r:?}");
    }

    #[test]
    fn recoverable_3d_rolls_back_bitflip() {
        let m = Mesh3D::<f32>::random(12, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let k = Jacobi3D::smoothing();
        let mut inj = FaultInjector::new(FaultPlan::single(21, FaultKind::BitFlip, 1_000_000));
        let mut rec = Recorder::disabled();
        let (out, _, stats) = simulate_3d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[k],
            &batch,
            6,
            &mut inj,
            &RetryPolicy::default(),
            &rollback_cfg(1),
            &mut rec,
        )
        .unwrap();
        assert_eq!(stats.sdc_detected, 1);
        assert_eq!(stats.rollbacks, 1);
        let expect = reference::run_3d(&k, &m, 6);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn spill_writes_versioned_checkpoints() {
        let dir = std::env::temp_dir().join("sf-fpga-recovery-spill-test");
        let _ = std::fs::create_dir_all(&dir);
        let (ds, batch, _) = poisson_setup();
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::disabled();
        let cfg = RecoveryConfig { spill_dir: Some(dir.clone()), ..rollback_cfg(2) };
        let (_, _, _stats) = simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut inj,
            &RetryPolicy::default(),
            &cfg,
            &mut rec,
        )
        .unwrap();
        let first = dir.join("ckpt_000000.sfckpt");
        let snap = spill::read_file(&first).expect("initial spilled checkpoint must decode");
        assert_eq!(snap.dims, vec![40, 24]);
        assert_eq!(snap.iters_done, 0);
        let last = dir.join("ckpt_000003.sfckpt");
        let snap = spill::read_file(&last).expect("final spilled checkpoint must decode");
        assert_eq!(snap.iters_done, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_parallel_recovery_is_jobs_invariant() {
        let wl = Workload::D2 { nx: 24, ny: 12, batch: 3 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            2,
            ExecMode::Batched { b: 3 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::<f32>::random(24, 12, 3, 11, -1.0, 1.0);
        let plan = FaultPlan::single(99, FaultKind::BitFlip, 200_000);
        let run = |jobs: usize| {
            let mut rec = Recorder::disabled();
            simulate_batch_2d_recoverable_exec(
                ScalarEngine,
                &dev(),
                &ds,
                &[Poisson2D],
                &batch,
                8,
                &plan,
                &RetryPolicy::default(),
                &rollback_cfg(2),
                jobs,
                &mut rec,
            )
            .unwrap()
        };
        let (o1, r1, s1) = run(1);
        let (o4, r4, s4) = run(4);
        assert!(norms::bit_equal(o1.as_slice(), o4.as_slice()));
        assert_eq!(s1, s4);
        assert_eq!(r1.total_cycles, r4.total_cycles);
        // every mesh result is bit-exact vs its own reference solve
        for i in 0..3 {
            let expect = reference::run_2d(&Poisson2D, &batch.mesh(i), 8);
            assert!(norms::bit_equal(o1.mesh(i).as_slice(), expect.as_slice()), "mesh {i}");
        }
    }
}
