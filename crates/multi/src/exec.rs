//! Sharded executors: run each slab on its own simulated device and
//! exchange halos at every pass barrier.
//!
//! Bit-exactness is by construction, not by luck. Each pass, device `k`
//! streams the *extended* slab `[start−h, end+h) ∩ [0, extent)` of the
//! current global state through the same chain runner
//! ([`sf_fpga::window::run_chain`]) the single-device executors use, with
//! the slab length as its seam period (slab edges are treated as mesh
//! boundaries). A pass chains at most `p · stages` processors and a stage
//! of radius `r` only lets boundary treatment contaminate `r` more units,
//! so after the whole pass at most `p · stages · ⌈D/2⌉ = h` units adjacent
//! to a *fake* (slab-interior) edge are wrong — exactly the halo, which is
//! discarded: only the owned units `[start, end)` are written back. Real
//! mesh boundaries are never clamped away because the extension is
//! clipped to `[0, extent)`. The result is bit-identical to the
//! single-device executors for any device count, engine, and `jobs` value.
//!
//! Telemetry mirrors [`sf_fpga::exec_batch`]: each (device, mesh) pair
//! records its first pass under a `dev{k}/mesh{i}/window/` track prefix
//! with deterministic cycle offsets, shard recorders merge in slab order,
//! and the halo-exchange cost is charged analytically from the
//! [`ShardedPlan`] — `exchange.bytes` / `exchange.messages` counters plus
//! the exposed (non-overlapped) cycles as
//! [`sf_telemetry::StallClass::Exchange`] — so traces stay byte-identical
//! for every `jobs` value.

use crate::partition::slab_partition;
use crate::plan::{sharded_plan, MultiConfig, MultiError, ShardedPlan};
use sf_fpga::cycles;
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::error::check_run;
use sf_fpga::window::{pass_chain, pass_sizes, run_chain, Engine2D, Engine3D, Stage, Stamps};
use sf_fpga::{FpgaDevice, SimReport};
use sf_mesh::{Batch2D, Batch3D, Element};
use sf_telemetry::{Recorder, StallClass};

/// Charge the analytic exchange cost into the recorder. Counters and the
/// [`StallClass::Exchange`] stall come from the plan, not from measuring
/// the simulated transfers, so they are deterministic across `jobs`.
fn charge_exchange(rec: &mut Recorder, plan: &ShardedPlan) {
    if plan.devices <= 1 {
        return;
    }
    rec.counter_add("exchange.bytes", plan.merged.passes * plan.exchange_bytes_per_pass);
    rec.counter_add("exchange.messages", plan.merged.passes * plan.exchange_messages_per_pass);
    rec.stall(StallClass::Exchange, plan.exchange_exposed_cycles);
}

/// The dimension-agnostic sharded executor over the flat batch `input` of
/// workload `wl`: per mesh and pass, every device streams its extended
/// slab through stages built by `make_stage(k, slab_units)` and keeps its
/// owned units.
#[allow(clippy::too_many_arguments)]
fn sharded<T: Element, K: Sync, S: Stage<T>>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    make_stage: impl Fn(&K, usize) -> S + Sync,
    input: &[T],
    wl: &Workload,
    niter: usize,
    cfg: &MultiConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Vec<T>, SimReport), MultiError> {
    let plan = sharded_plan(dev, design, wl, niter as u64, cfg)?;
    let checked = check_run(design, wl, stages_per_iter.len(), niter, false);
    assert_eq!(checked, Ok(()), "invalid run");
    let h = plan.halo;
    let (unit_len, extent) = wl.stream_units();
    let shards = slab_partition(extent, cfg.devices);
    let unit_cycles = cycles::unit_cycles(dev, design, wl);
    let passes = pass_sizes(design, niter);
    let trace_on = rec.is_enabled();
    let clock = rec.cycles_per_us();
    if trace_on {
        annotate(rec, &plan);
    }

    let mut out = Vec::with_capacity(input.len());
    for (i, mesh) in input.chunks(unit_len * extent).enumerate() {
        let mut cur = mesh.to_vec();
        for (n, &p_eff) in passes.iter().enumerate() {
            let trace_this = trace_on && n == 0;
            let results = sf_par::par_map(jobs, shards.clone(), |k, s| {
                // Halo exchange happens here: every device's extended slab
                // is gathered from the pass-barrier global state.
                let lo = s.start.saturating_sub(h);
                let hi = (s.end() + h).min(extent);
                let units = cur[lo * unit_len..hi * unit_len].chunks(unit_len).map(<[T]>::to_vec);
                let mut shard_rec =
                    if trace_this { Recorder::enabled(clock) } else { Recorder::disabled() };
                let prefix = format!("dev{k}/mesh{i}/window/");
                let base_cycle = (i * extent + s.start) as u64 * unit_cycles;
                let at = Stamps { prefix: &prefix, base_cycle, unit_cycles };
                let chain = pass_chain(stages_per_iter, p_eff).map(|k| make_stage(k, hi - lo));
                let slab = run_chain(chain.collect(), hi - lo, units, &mut shard_rec, at, None);
                let owned: Vec<Vec<T>> = slab.into_iter().skip(s.start - lo).take(s.len).collect();
                (owned, shard_rec)
            });
            // Slabs tile the extent in order, so the owned units
            // concatenate into the next global state.
            let mut next = Vec::with_capacity(cur.len());
            let mut shard_recs = Vec::with_capacity(shards.len());
            for (owned, sr) in results {
                owned.iter().for_each(|u| next.extend_from_slice(u));
                shard_recs.push(sr);
            }
            if trace_this {
                rec.merge_shards(shard_recs);
            }
            cur = next;
        }
        out.extend_from_slice(&cur);
    }
    charge_exchange(rec, &plan);

    let power = sf_fpga::power::fpga_power_w(dev, design) * cfg.devices as f64;
    let report = SimReport::from_plan(design, &plan.merged, niter as u64, power);
    Ok((out, report))
}

/// Schedule-only telemetry for a sharded run: per-pass spans from the
/// merged plan (pass wall-clock = slowest device, exposed exchange
/// included), first-pass spans per device on `dev{k}/pipeline`, the
/// sharded-schedule metadata, and the analytic exchange charges — without
/// streaming any numerics. The multi-device twin of
/// [`sf_fpga::profile::trace_schedule`] for paper-scale workloads: spans
/// on the `pipeline` track sum to `merged.total_cycles`.
///
/// # Errors
/// The [`MultiError`]s of [`sharded_plan`]: zero devices, more devices
/// than outermost units, or a tiled design.
pub fn trace_sharded_schedule(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    cfg: &MultiConfig,
    rec: &mut Recorder,
) -> Result<ShardedPlan, MultiError> {
    // Same collapse threshold as the single-device schedule tracer.
    const MAX_PASS_SPANS: u64 = 256;
    let plan = sharded_plan(dev, design, wl, niter, cfg)?;
    if !rec.is_enabled() {
        return Ok(plan);
    }
    annotate(rec, &plan);
    let pipe = rec.track("pipeline");
    let cpp = plan.merged.cycles_per_pass;
    let shown = plan.merged.passes.min(MAX_PASS_SPANS);
    for i in 0..shown {
        rec.span(pipe, &format!("pass {i}"), i * cpp, (i + 1) * cpp);
    }
    if plan.merged.passes > shown {
        rec.span(
            pipe,
            &format!("passes {shown}..{}", plan.merged.passes),
            shown * cpp,
            plan.merged.passes * cpp,
        );
    }
    // First pass per device: the streamed extended slab, then whatever
    // exchange its interior compute could not hide.
    for d in &plan.per_device {
        let t = rec.track(&format!("dev{}/pipeline", d.device));
        rec.span(t, &format!("stream {} units", d.extended_len), 0, d.pass_cycles);
        if d.exposed_cycles > 0 {
            rec.span(t, "exchange (exposed)", d.pass_cycles, d.pass_cycles + d.exposed_cycles);
        }
    }
    charge_exchange(rec, &plan);
    Ok(plan)
}

/// Record the sharded schedule's headline numbers as trace metadata.
fn annotate(rec: &mut Recorder, plan: &ShardedPlan) {
    use serde::Value;
    rec.set_meta("devices", Value::U64(plan.devices as u64));
    rec.set_meta("halo_units", Value::U64(plan.halo as u64));
    rec.set_meta("sharded_passes", Value::U64(plan.merged.passes));
    rec.set_meta("sharded_cycles_per_pass", Value::U64(plan.merged.cycles_per_pass));
    rec.set_meta("exchange_bytes_per_pass", Value::U64(plan.exchange_bytes_per_pass));
}

/// Multi-device sharded twin of
/// [`sf_fpga::exec_batch::simulate_batch_2d_parallel_exec`], with stages
/// built by `engine`.
///
/// Output is bit-identical to the single-device executors for every
/// device count, engine and `jobs` value; the [`SimReport`] prices the
/// sharded schedule (slowest device per pass, exchange exposure included).
///
/// # Errors
/// The [`MultiError`]s of [`sharded_plan`]: zero devices, more devices
/// than outermost units, or a tiled design.
///
/// # Panics
/// Panics on a design/input mismatch (wrong batch size, stage count) or
/// `niter == 0`, exactly like the single-device batch executors.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_sharded_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    cfg: &MultiConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport), MultiError>
where
    T: Element,
    K: Sync,
    E: Engine2D<T, K> + Sync,
{
    let (nx, ny, b) = (input.nx(), input.ny(), input.batch());
    let wl = Workload::D2 { nx, ny, batch: b };
    let make = |k: &K, slab| engine.stage(k, nx, slab, slab);
    let flat = input.as_slice();
    let (out, report) =
        sharded(dev, design, stages_per_iter, make, flat, &wl, niter, cfg, jobs, rec)?;
    Ok((Batch2D::from_vec(nx, ny, b, out), report))
}

/// 3D twin of [`simulate_batch_2d_sharded_exec`].
///
/// # Errors
/// See [`simulate_batch_2d_sharded_exec`].
///
/// # Panics
/// See [`simulate_batch_2d_sharded_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_sharded_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    cfg: &MultiConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport), MultiError>
where
    T: Element,
    K: Sync,
    E: Engine3D<T, K> + Sync,
{
    let (nx, ny, nz, b) = (input.nx(), input.ny(), input.nz(), input.batch());
    let wl = Workload::D3 { nx, ny, nz, batch: b };
    let make = |k: &K, slab| engine.stage(k, nx, ny, slab, slab);
    let flat = input.as_slice();
    let (out, report) =
        sharded(dev, design, stages_per_iter, make, flat, &wl, niter, cfg, jobs, rec)?;
    Ok((Batch3D::from_vec(nx, ny, nz, b, out), report))
}
