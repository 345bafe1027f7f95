//! 2D executors: baseline, batched and tiled execution of a synthesized
//! design, producing both the numeric result (bit-exact vs the golden
//! reference) and a [`SimReport`].
//!
//! * [`simulate_2d_exec`] — streams every cell through the window-buffer
//!   chain via [`crate::window::run_passes`] on any engine (use for
//!   validation-scale workloads); [`simulate_2d`] and [`simulate_mesh_2d`]
//!   are its untraced [`ScalarEngine`] conveniences.
//! * For timing/power only at paper scale (60 000 iterations on 400×400
//!   meshes would be pointless to stream cell by cell), price the
//!   closed-form [`cycles::plan`] with [`SimReport::from_plan`] — the plan
//!   is exact either way.

use crate::cycles;
use crate::design::{ExecMode, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::check_run;
use crate::power;
use crate::profile;
use crate::report::SimReport;
use crate::window::{
    pass_chain, pass_sizes, run_chain, run_passes, Engine2D, ScalarEngine, Stamps,
};
use sf_kernels::StencilOp2D;
use sf_mesh::{Batch2D, Element, Mesh2D, TileGrid1D};
use sf_telemetry::Recorder;

/// Execute `niter` iterations of `stages_per_iter` on a (batch of) 2D
/// mesh(es) through the design's dataflow pipeline, with stages built by
/// `engine`. Returns the result and the report.
///
/// Telemetry: emits the schedule trace ([`profile::trace_schedule`] —
/// per-pass/per-tile spans, AXI channel utilisation, stall attribution)
/// plus behavioral window-buffer events (fill gauges, primed/drain
/// instants) for the first pass. The schedule repeats identically every
/// pass, so later passes stream untraced; pass [`Recorder::disabled`] for
/// an untraced run.
///
/// # Panics
/// Panics if the design mode disagrees with the input batch (e.g. a
/// `Batched{b}` design fed a different batch size, or a tiled design fed a
/// batch).
pub fn simulate_2d_exec<T: Element, K, E: Engine2D<T, K>>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    rec: &mut Recorder,
) -> (Batch2D<T>, SimReport) {
    let (nx, ny, b) = (input.nx(), input.ny(), input.batch());
    let wl = Workload::D2 { nx, ny, batch: b };
    assert_eq!(check_run(design, &wl, stages_per_iter.len(), niter, true), Ok(()), "invalid run");
    let plan = profile::trace_schedule(dev, design, &wl, niter as u64, rec);
    let passes = pass_sizes(design, niter);
    let out = match design.mode {
        ExecMode::Tiled1D { tile_m } => {
            let mut cur = input.as_slice().to_vec();
            let mut off = Recorder::disabled();
            for (n, &p_eff) in passes.iter().enumerate() {
                let pass_rec = if n == 0 { &mut *rec } else { &mut off };
                let chain: Vec<&K> = pass_chain(stages_per_iter, p_eff).collect();
                cur = tiled_pass_2d(&engine, dev, design, &chain, &cur, nx, tile_m, pass_rec);
            }
            cur
        }
        _ => {
            let at = Stamps {
                prefix: "window/",
                base_cycle: 0,
                unit_cycles: cycles::unit_cycles(dev, design, &wl),
            };
            let make = |k: &K| engine.stage(k, nx, b * ny, ny);
            run_passes(input.as_slice(), nx, &passes, stages_per_iter, make, rec, at, None)
        }
    };

    let report =
        SimReport::from_plan(design, &plan, niter as u64, power::fpga_power_w(dev, design));
    (Batch2D::from_vec(nx, ny, b, out), report)
}

/// [`simulate_2d_exec`] on the [`ScalarEngine`], untraced.
///
/// ```
/// use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
/// use sf_fpga::{exec2d, FpgaDevice};
/// use sf_kernels::{reference, Poisson2D, StencilSpec};
/// use sf_mesh::{norms, Mesh2D};
///
/// let dev = FpgaDevice::u280();
/// let wl = Workload::D2 { nx: 40, ny: 20, batch: 1 };
/// let ds = synthesize(&dev, &StencilSpec::poisson(), 8, 4,
///                     ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
/// let m = Mesh2D::<f32>::random(40, 20, 1, -1.0, 1.0);
/// let (out, report) = exec2d::simulate_mesh_2d(&dev, &ds, &[Poisson2D], &m, 8);
/// // bit-exact against the golden reference
/// let golden = reference::run_2d(&Poisson2D, &m, 8);
/// assert!(norms::bit_equal(out.as_slice(), golden.as_slice()));
/// assert!(report.total_cycles > 0);
/// ```
pub fn simulate_2d<T: Element, K: StencilOp2D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
) -> (Batch2D<T>, SimReport) {
    let rec = &mut Recorder::disabled();
    simulate_2d_exec(ScalarEngine, dev, design, stages_per_iter, input, niter, rec)
}

/// [`simulate_2d`] for a single mesh.
pub fn simulate_mesh_2d<T: Element, K: StencilOp2D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Mesh2D<T>,
    niter: usize,
) -> (Mesh2D<T>, SimReport) {
    let batch = Batch2D::from_meshes(std::slice::from_ref(input));
    let (out, rep) = simulate_2d(dev, design, stages_per_iter, &batch, niter);
    (out.mesh(0), rep)
}

/// One spatially-blocked pass (`chain.len()` chained stages) over the 2D
/// mesh `mesh` (`nx` cells per row): every tile is streamed through the
/// pipeline against the pass-start mesh, and only its valid columns are
/// written back — exactly the paper's overlapped-block scheme.
#[allow(clippy::too_many_arguments)]
fn tiled_pass_2d<T: Element, K, E: Engine2D<T, K>>(
    engine: &E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    chain: &[&K],
    mesh: &[T],
    nx: usize,
    tile_m: usize,
    rec: &mut Recorder,
) -> Vec<T> {
    let ny = mesh.len() / nx;
    // halo sized for the full design depth p (covers shorter final passes too)
    let halo = design.p * design.spec.halo_order() / 2;
    let align = (64 / design.spec.elem_bytes).max(1);
    let grid = TileGrid1D::new(nx, tile_m, halo, align);
    let mut out = vec![T::default(); mesh.len()];
    let mut off = Recorder::disabled();
    for (i, t) in grid.tiles().iter().enumerate() {
        let rows = (0..ny).map(|y| {
            let s = y * nx + t.read_start;
            mesh[s..s + t.read_len].to_vec()
        });
        // Window-level events for the first tile only: every tile streams
        // the same chain, differing only in width.
        let tile_rec: &mut Recorder = if i == 0 { &mut *rec } else { &mut off };
        let unit_cycles = cycles::design_row_cycles(dev, design, t.read_len, t.valid_len);
        let at = Stamps { prefix: "tile0/", base_cycle: 0, unit_cycles };
        let stages = chain.iter().map(|k| engine.stage(k, t.read_len, ny, ny)).collect();
        let tile_rows = run_chain(stages, ny, rows, tile_rec, at, None);
        let off = t.valid_offset();
        for (y, row) in tile_rows.into_iter().enumerate() {
            let dst = y * nx + t.valid_start;
            out[dst..dst + t.valid_len].copy_from_slice(&row[off..off + t.valid_len]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, MemKind};
    use sf_kernels::{reference, Poisson2D, StencilSpec};
    use sf_mesh::norms;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn design(wl: &Workload, v: usize, p: usize, mode: ExecMode) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), v, p, mode, MemKind::Hbm, wl).unwrap()
    }

    #[test]
    fn baseline_bit_exact_vs_reference() {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = design(&wl, 8, 4, ExecMode::Baseline);
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 12);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
        assert!(rep.runtime_s > 0.0);
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn baseline_handles_non_multiple_iters() {
        let m = Mesh2D::<f32>::random(32, 16, 3, -1.0, 1.0);
        let wl = Workload::D2 { nx: 32, ny: 16, batch: 1 };
        let ds = design(&wl, 8, 5, ExecMode::Baseline);
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 7);
        let expect = reference::run_2d(&Poisson2D, &m, 7);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
        assert_eq!(rep.passes, 2);
    }

    #[test]
    fn batched_bit_exact_vs_independent_solves() {
        let batch = Batch2D::<f32>::random(24, 12, 5, 11, -1.0, 1.0);
        let wl = Workload::D2 { nx: 24, ny: 12, batch: 5 };
        let ds = design(&wl, 8, 6, ExecMode::Batched { b: 5 });
        let (out, _) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 9);
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 9);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn tiled_bit_exact_vs_reference() {
        // tile width 64 with halo p·D/2 = 8 → several overlapping tiles
        let m = Mesh2D::<f32>::random(200, 30, 13, -1.0, 1.0);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = design(&wl, 8, 8, ExecMode::Tiled1D { tile_m: 64 });
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 16);
        let expect = reference::run_2d(&Poisson2D, &m, 16);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert_eq!(rep.passes, 2);
    }

    #[test]
    fn tiled_partial_final_pass_still_exact() {
        let m = Mesh2D::<f32>::random(150, 20, 17, -1.0, 1.0);
        let wl = Workload::D2 { nx: 150, ny: 20, batch: 1 };
        let ds = design(&wl, 8, 6, ExecMode::Tiled1D { tile_m: 48 });
        let (out, _) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 8); // 6 + 2
        let expect = reference::run_2d(&Poisson2D, &m, 8);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn traced_simulation_matches_untraced_and_reconciles_with_plan() {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = design(&wl, 8, 4, ExecMode::Baseline);
        let (plain, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 12);

        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let (traced, rep2) =
            simulate_2d_exec(ScalarEngine, &dev(), &ds, &[Poisson2D], &batch, 12, &mut rec);
        assert!(norms::bit_equal(traced.mesh(0).as_slice(), plain.as_slice()));
        assert_eq!(rep.total_cycles, rep2.total_cycles);

        // Schedule spans reconcile with the plan totals.
        let pipe = rec.find_track("pipeline").unwrap();
        assert_eq!(rec.track_span_cycles(pipe), rep.total_cycles);
        // Behavioral window events present for the first pass.
        assert!(rec.track_names().iter().any(|t| t.starts_with("window/stage:")));
        assert_eq!(rec.counter("window.rows_streamed"), 24);
        assert!(rec.instants().iter().any(|i| i.name == "primed"));
    }

    #[test]
    fn traced_tiled_simulation_traces_first_tile_only() {
        let m = Mesh2D::<f32>::random(200, 30, 13, -1.0, 1.0);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = design(&wl, 8, 8, ExecMode::Tiled1D { tile_m: 64 });
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let (out, _) =
            simulate_2d_exec(ScalarEngine, &dev(), &ds, &[Poisson2D], &batch, 16, &mut rec);
        let expect = reference::run_2d(&Poisson2D, &m, 16);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        // Window tracks exist only for the first tile's chain.
        let stage_tracks: Vec<_> =
            rec.track_names().iter().filter(|t| t.contains("stage:")).collect();
        assert!(!stage_tracks.is_empty());
        assert!(stage_tracks.iter().all(|t| t.starts_with("tile0/")));
        // Schedule segments cover every tile, though.
        let seg = rec.find_track("segments").unwrap();
        assert!(rec.spans().iter().filter(|s| s.track == seg).count() > 2);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn batch_size_checked() {
        let batch = Batch2D::<f32>::zeros(16, 8, 3);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 4 };
        let ds = design(&wl, 8, 2, ExecMode::Batched { b: 4 });
        let _ = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 2);
    }
}

#[cfg(test)]
mod multistage_2d_tests {
    //! Fused multi-stage 2D pipelines ("multiple stencil loops" in 2D) —
    //! the wave2d kick/drift pair through every execution mode.

    use super::*;
    use crate::design::{synthesize, MemKind};
    use sf_kernels::reference;
    use sf_kernels::wave2d::{self, WaveParams};
    use sf_mesh::norms;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    /// Build the per-iteration stage list as trait objects are not possible —
    /// use an enum wrapper so one chain type holds both stages.
    #[derive(Copy, Clone)]
    enum WaveStage {
        Kick(wave2d::WaveKick),
        Drift(wave2d::WaveDrift),
    }

    impl sf_kernels::StencilOp2D<wave2d::WaveState> for WaveStage {
        fn radius(&self) -> usize {
            match self {
                WaveStage::Kick(k) => k.radius(),
                WaveStage::Drift(d) => d.radius(),
            }
        }

        fn apply<F: Fn(i32, i32) -> wave2d::WaveState>(&self, at: F) -> wave2d::WaveState {
            match self {
                WaveStage::Kick(k) => k.apply(at),
                WaveStage::Drift(d) => d.apply(at),
            }
        }

        fn on_boundary(&self, c: wave2d::WaveState) -> wave2d::WaveState {
            match self {
                WaveStage::Kick(k) => k.on_boundary(c),
                WaveStage::Drift(d) => d.on_boundary(c),
            }
        }
    }

    fn stages() -> [WaveStage; 2] {
        let (k, d) = wave2d::pipeline(WaveParams::default());
        [WaveStage::Kick(k), WaveStage::Drift(d)]
    }

    #[test]
    fn wave_baseline_bit_exact() {
        let m = wave2d::standing_wave(30, 22);
        let wl = Workload::D2 { nx: 30, ny: 22, batch: 1 };
        let ds = synthesize(&dev(), &wave2d::spec(), 4, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &stages(), &m, 8);
        let expect = reference::run_stages_2d(&stages(), &m, 8);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn wave_batched_bit_exact() {
        let meshes: Vec<_> = (0..4)
            .map(|i| {
                let mut m = wave2d::standing_wave(20, 16);
                let v = m.get(10, 8);
                m.set(10, 8, sf_mesh::VecN::new([v.0[0] * (1.0 + i as f32 * 0.1), 0.0]));
                m
            })
            .collect();
        let batch = Batch2D::from_meshes(&meshes);
        let wl = Workload::D2 { nx: 20, ny: 16, batch: 4 };
        let ds = synthesize(
            &dev(),
            &wave2d::spec(),
            4,
            2,
            ExecMode::Batched { b: 4 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let (out, _) = simulate_2d(&dev(), &ds, &stages(), &batch, 5);
        for (i, m) in meshes.iter().enumerate() {
            let solo = reference::run_stages_2d(&stages(), m, 5);
            assert!(norms::bit_equal(out.mesh(i).as_slice(), solo.as_slice()), "mesh {i} diverged");
        }
    }

    #[test]
    fn wave_tiled_bit_exact() {
        // halo = p · stages · D / 2 = 2·4/2... with p=2: 8 per side
        let m = wave2d::standing_wave(160, 18);
        let wl = Workload::D2 { nx: 160, ny: 18, batch: 1 };
        let ds = synthesize(
            &dev(),
            &wave2d::spec(),
            4,
            2,
            ExecMode::Tiled1D { tile_m: 48 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let (out, _) = simulate_mesh_2d(&dev(), &ds, &stages(), &m, 6);
        let expect = reference::run_stages_2d(&stages(), &m, 6);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
    }

    /// The wave chain's design and input: 8 iterations at p = 3, so the
    /// run spans three passes.
    fn wave_setup() -> (StencilDesign, Mesh2D<wave2d::WaveState>, Batch2D<wave2d::WaveState>) {
        let m = wave2d::standing_wave(30, 22);
        let wl = Workload::D2 { nx: 30, ny: 22, batch: 1 };
        let ds = synthesize(&dev(), &wave2d::spec(), 4, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        (ds, m, batch)
    }

    // The wave chain has no lane impl, so `ScalarEngine` is the only engine
    // that runs it; the fault-aware families must still take it.

    #[test]
    fn wave_resilient_on_scalar_engine_bit_exact() {
        let (ds, m, batch) = wave_setup();
        let mut inj = sf_faults::FaultInjector::disabled();
        let (out, _) = crate::resilient::simulate_2d_resilient_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &stages(),
            &batch,
            8,
            &mut inj,
            &sf_faults::RetryPolicy::default(),
            &mut Recorder::disabled(),
        )
        .unwrap();
        let expect = reference::run_stages_2d(&stages(), &m, 8);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn wave_recoverable_on_scalar_engine_bit_exact() {
        use sf_recover::{RecoveryConfig, RecoveryPolicy};
        let (ds, m, batch) = wave_setup();
        let plan = sf_faults::FaultPlan {
            seed: 5,
            kind: sf_faults::FaultKind::BitFlip,
            rate_ppm: 0,
            max_injections: 0,
        };
        let mut inj = sf_faults::FaultInjector::new(plan);
        let rcfg = RecoveryConfig {
            policy: RecoveryPolicy::Rollback { max_retries: 3 },
            checkpoint_every: 1,
            ..RecoveryConfig::default()
        };
        let (out, _, stats) = crate::recovery::simulate_2d_recoverable_exec(
            ScalarEngine,
            &dev(),
            &ds,
            &stages(),
            &batch,
            8,
            &mut inj,
            &sf_faults::RetryPolicy::default(),
            &rcfg,
            &mut Recorder::disabled(),
        )
        .unwrap();
        let expect = reference::run_stages_2d(&stages(), &m, 8);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert_eq!((stats.rollbacks, stats.abft_checks), (0, 3));
    }
}
