//! Parallel batched execution: the paper's eq. 15 batch of `B` independent
//! meshes, fanned across worker threads.
//!
//! The single-stream executors ([`crate::exec2d::simulate_2d_exec`],
//! [`crate::exec3d::simulate_3d_exec`]) stream a `Batched{b}` workload as one
//! stacked mesh; per-mesh boundary handling inside the window chain makes
//! each batch member's result bit-identical to solving it alone (the
//! `batched_bit_exact_vs_independent_solves` invariant). This module
//! exploits exactly that independence: each mesh becomes one work item for
//! [`sf_par::par_map`], carrying a private [`Recorder`] shard, and shards
//! are merged back in mesh order. The consequences:
//!
//! * **Numerics** — bit-identical to the single-stream executors, for any
//!   worker count.
//! * **Timing** — the [`SimReport`] comes from the same closed-form cycle
//!   plan over the *full batched workload* (eq. 2–15 don't care how the
//!   simulation was scheduled on host threads), so it is byte-identical to
//!   the serial report.
//! * **Traces** — each mesh records under a `mesh{i}/window/` track prefix
//!   with its cycle stamps offset to the mesh's position in the batched
//!   stream; the deterministic merge makes the exported Chrome trace and
//!   flat-metrics JSON byte-identical for every `jobs` value.

use crate::cycles;
use crate::design::{StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::check_run;
use crate::power;
use crate::profile;
use crate::report::SimReport;
use crate::window::{pass_sizes, run_passes, Engine2D, Engine3D, Stage, Stamps};
use sf_mesh::{Batch2D, Batch3D, Element};
use sf_telemetry::Recorder;

/// The dimension-agnostic batch executor: every mesh of the flat batch
/// `input` of workload `wl` runs the full pass schedule as one work item
/// through stages built by `make_stage` (one mesh per stream), recording
/// its first pass under `mesh{i}/window/` at the mesh's cycle offset in the
/// batched stream.
#[allow(clippy::too_many_arguments)]
fn batch_parallel<T: Element, K: Sync, S: Stage<T>>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    make_stage: impl Fn(&K) -> S + Sync,
    input: &[T],
    wl: &Workload,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Vec<T>, SimReport) {
    let checked = check_run(design, wl, stages_per_iter.len(), niter, false);
    assert_eq!(checked, Ok(()), "invalid run");
    let plan = profile::trace_schedule(dev, design, wl, niter as u64, rec);
    let (unit_len, mesh_units) = wl.stream_units();
    let unit_cycles = cycles::unit_cycles(dev, design, wl);
    let passes = pass_sizes(design, niter);
    let trace_on = rec.is_enabled();
    let clock = rec.cycles_per_us();

    let meshes: Vec<&[T]> = input.chunks(unit_len * mesh_units).collect();
    let results = sf_par::par_map(jobs, meshes, |i, mesh| {
        let mut shard = if trace_on { Recorder::enabled(clock) } else { Recorder::disabled() };
        let prefix = format!("mesh{i}/window/");
        // Cycle offset of this mesh's units within the batched stream.
        let base_cycle = (i * mesh_units) as u64 * unit_cycles;
        let at = Stamps { prefix: &prefix, base_cycle, unit_cycles };
        let out =
            run_passes(mesh, unit_len, &passes, stages_per_iter, &make_stage, &mut shard, at, None);
        (out, shard)
    });
    let (outs, shards): (Vec<Vec<T>>, Vec<Recorder>) = results.into_iter().unzip();
    rec.merge_shards(shards);

    let report =
        SimReport::from_plan(design, &plan, niter as u64, power::fpga_power_w(dev, design));
    (outs.concat(), report)
}

/// Execute a (batch of) 2D mesh(es) with per-mesh fan-out across `jobs`
/// worker threads, with stages built by `engine`.
///
/// Output, [`SimReport`] and every byte recorded into `rec` are identical
/// for all `jobs` values (see the module docs for why); `jobs = 1` *is*
/// the serial reference path. The numeric result is bit-identical to
/// [`crate::exec2d::simulate_2d_exec`] on the same inputs.
///
/// # Panics
/// Panics on a design/input mismatch (wrong batch size, tiled mode) or
/// `niter == 0`, like the single-stream executors.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_parallel_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Batch2D<T>, SimReport)
where
    T: Element,
    K: Sync,
    E: Engine2D<T, K> + Sync,
{
    let (nx, ny, b) = (input.nx(), input.ny(), input.batch());
    let wl = Workload::D2 { nx, ny, batch: b };
    let make = |k: &K| engine.stage(k, nx, ny, ny);
    let (out, report) =
        batch_parallel(dev, design, stages_per_iter, make, input.as_slice(), &wl, niter, jobs, rec);
    (Batch2D::from_vec(nx, ny, b, out), report)
}

/// 3D twin of [`simulate_batch_2d_parallel_exec`].
///
/// # Panics
/// See [`simulate_batch_2d_parallel_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_parallel_exec<T, K, E>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Batch3D<T>, SimReport)
where
    T: Element,
    K: Sync,
    E: Engine3D<T, K> + Sync,
{
    let (nx, ny, nz, b) = (input.nx(), input.ny(), input.nz(), input.batch());
    let wl = Workload::D3 { nx, ny, nz, batch: b };
    let make = |k: &K| engine.stage(k, nx, ny, nz, nz);
    let (out, report) =
        batch_parallel(dev, design, stages_per_iter, make, input.as_slice(), &wl, niter, jobs, rec);
    (Batch3D::from_vec(nx, ny, nz, b, out), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::exec2d::simulate_2d;
    use crate::exec3d::simulate_3d;
    use crate::window::ScalarEngine;
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::norms;
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json};

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn design_2d(wl: &Workload, b: usize) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), 8, 6, ExecMode::Batched { b }, MemKind::Hbm, wl)
            .unwrap()
    }

    #[test]
    fn batch_2d_matches_single_stream_and_reference() {
        let batch = Batch2D::<f32>::random(24, 12, 5, 11, -1.0, 1.0);
        let wl = Workload::D2 { nx: 24, ny: 12, batch: 5 };
        let ds = design_2d(&wl, 5);
        let (legacy, legacy_rep) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 9);
        for jobs in [1, 2, 4] {
            let (out, rep) = simulate_batch_2d_parallel_exec(
                ScalarEngine,
                &dev(),
                &ds,
                &[Poisson2D],
                &batch,
                9,
                jobs,
                &mut Recorder::disabled(),
            );
            assert!(norms::bit_equal(out.as_slice(), legacy.as_slice()), "jobs={jobs}");
            assert_eq!(rep.total_cycles, legacy_rep.total_cycles);
            assert_eq!(rep.runtime_s, legacy_rep.runtime_s);
        }
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 9);
        assert!(norms::bit_equal(legacy.as_slice(), expect.as_slice()));
    }

    #[test]
    fn batch_2d_traces_are_jobs_invariant() {
        let batch = Batch2D::<f32>::random(20, 10, 4, 3, -1.0, 1.0);
        let wl = Workload::D2 { nx: 20, ny: 10, batch: 4 };
        let ds = design_2d(&wl, 4);
        let run = |jobs: usize| {
            let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
            let (out, _) = simulate_batch_2d_parallel_exec(
                ScalarEngine,
                &dev(),
                &ds,
                &[Poisson2D],
                &batch,
                7,
                jobs,
                &mut rec,
            );
            (out, to_chrome_json(&rec), to_metrics_json(&rec))
        };
        let (out1, chrome1, metrics1) = run(1);
        for jobs in [2, 3, 8] {
            let (out, chrome, metrics) = run(jobs);
            assert!(norms::bit_equal(out.as_slice(), out1.as_slice()), "jobs={jobs}");
            assert_eq!(chrome, chrome1, "chrome trace must be byte-identical at jobs={jobs}");
            assert_eq!(metrics, metrics1, "metrics JSON must be byte-identical at jobs={jobs}");
        }
    }

    #[test]
    fn batch_2d_trace_has_per_mesh_swimlanes_and_summed_counters() {
        let batch = Batch2D::<f32>::random(16, 8, 3, 5, -1.0, 1.0);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 3 };
        let ds = design_2d(&wl, 3);
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let _ = simulate_batch_2d_parallel_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            6,
            2,
            &mut rec,
        );
        for i in 0..3 {
            let prefix = format!("mesh{i}/window/");
            assert!(
                rec.track_names().iter().any(|t| t.starts_with(&prefix)),
                "missing swimlane {prefix}"
            );
        }
        // every mesh streams its ny rows on the traced first pass
        assert_eq!(rec.counter("window.rows_streamed"), 3 * 8);
        // schedule trace still present exactly once
        assert!(rec.find_track("pipeline").is_some());
    }

    #[test]
    fn batch_3d_matches_single_stream_for_all_jobs() {
        let batch = Batch3D::<f32>::random(10, 10, 8, 4, 21, -1.0, 1.0);
        let wl = Workload::D3 { nx: 10, ny: 10, nz: 8, batch: 4 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::jacobi(),
            8,
            3,
            ExecMode::Batched { b: 4 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let k = Jacobi3D::smoothing();
        let (legacy, legacy_rep) = simulate_3d(&dev(), &ds, &[k], &batch, 6);
        let run = |jobs: usize| {
            let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
            let (out, rep) = simulate_batch_3d_parallel_exec(
                ScalarEngine,
                &dev(),
                &ds,
                &[k],
                &batch,
                6,
                jobs,
                &mut rec,
            );
            (out, rep, to_chrome_json(&rec))
        };
        let (out1, rep1, chrome1) = run(1);
        assert!(norms::bit_equal(out1.as_slice(), legacy.as_slice()));
        assert_eq!(rep1.total_cycles, legacy_rep.total_cycles);
        for jobs in [2, 4] {
            let (out, rep, chrome) = run(jobs);
            assert!(norms::bit_equal(out.as_slice(), out1.as_slice()), "jobs={jobs}");
            assert_eq!(rep.total_cycles, rep1.total_cycles);
            assert_eq!(chrome, chrome1, "jobs={jobs}");
        }
        assert_eq!(
            {
                let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
                let _ = simulate_batch_3d_parallel_exec(
                    ScalarEngine,
                    &dev(),
                    &ds,
                    &[k],
                    &batch,
                    6,
                    2,
                    &mut rec,
                );
                rec.counter("window.planes_streamed")
            },
            4 * 8
        );
    }

    #[test]
    fn single_mesh_baseline_accepted() {
        let batch = Batch2D::<f32>::random(16, 8, 1, 9, -1.0, 1.0);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 1 };
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
        let (out, _) = simulate_batch_2d_parallel_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            5,
            4,
            &mut Recorder::disabled(),
        );
        let (legacy, _) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 5);
        assert!(norms::bit_equal(out.as_slice(), legacy.as_slice()));
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn batch_mismatch_panics() {
        let batch = Batch2D::<f32>::zeros(16, 8, 3);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 4 };
        let ds = design_2d(&wl, 4);
        let _ = simulate_batch_2d_parallel_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            2,
            2,
            &mut Recorder::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "Baseline or Batched")]
    fn tiled_design_rejected() {
        let batch = Batch2D::<f32>::zeros(200, 30, 1);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            8,
            ExecMode::Tiled1D { tile_m: 64 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let _ = simulate_batch_2d_parallel_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            2,
            2,
            &mut Recorder::disabled(),
        );
    }
}
