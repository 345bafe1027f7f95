//! 3D executors: baseline, batched and tiled execution (see [`crate::exec2d`]
//! for the 2D twins). Multi-stage chains make these the RTM execution path:
//! one pass chains `p × stages` processors — the paper's "four fused loops
//! … brought into a single pipeline", unrolled `p` times.

use crate::cycles;
use crate::design::{ExecMode, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::check_run;
use crate::power;
use crate::profile;
use crate::report::SimReport;
use crate::window::{
    pass_chain, pass_sizes, run_chain, run_passes, Engine3D, ScalarEngine, Stamps,
};
use sf_kernels::StencilOp3D;
use sf_mesh::{Batch3D, Element, Mesh3D, TileGrid1D};
use sf_telemetry::Recorder;

/// Execute `niter` iterations (each = all `stages_per_iter` in order) on a
/// (batch of) 3D mesh(es), with stages built by `engine`. Returns the
/// result and the report; telemetry as in
/// [`crate::exec2d::simulate_2d_exec`] (schedule trace plus window-buffer
/// events for the first pass / first tile).
///
/// # Panics
/// Panics on a design/input mismatch, like
/// [`crate::exec2d::simulate_2d_exec`].
pub fn simulate_3d_exec<T: Element, K, E: Engine3D<T, K>>(
    engine: E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    rec: &mut Recorder,
) -> (Batch3D<T>, SimReport) {
    let (nx, ny, nz, b) = (input.nx(), input.ny(), input.nz(), input.batch());
    let wl = Workload::D3 { nx, ny, nz, batch: b };
    assert_eq!(check_run(design, &wl, stages_per_iter.len(), niter, true), Ok(()), "invalid run");
    let plan = profile::trace_schedule(dev, design, &wl, niter as u64, rec);
    let passes = pass_sizes(design, niter);
    let out = match design.mode {
        ExecMode::Tiled2D { tile_m, tile_n } => {
            let mut cur = input.as_slice().to_vec();
            let mut off = Recorder::disabled();
            for (n, &p_eff) in passes.iter().enumerate() {
                let pass_rec = if n == 0 { &mut *rec } else { &mut off };
                let chain: Vec<&K> = pass_chain(stages_per_iter, p_eff).collect();
                let tile = (tile_m, tile_n);
                cur = tiled_pass_3d(&engine, dev, design, &chain, &cur, (nx, ny), tile, pass_rec);
            }
            cur
        }
        _ => {
            // The streamed unit is a plane: ny rows at the design's row rate.
            let at = Stamps {
                prefix: "window/",
                base_cycle: 0,
                unit_cycles: cycles::unit_cycles(dev, design, &wl),
            };
            let make = |k: &K| engine.stage(k, nx, ny, b * nz, nz);
            run_passes(input.as_slice(), nx * ny, &passes, stages_per_iter, make, rec, at, None)
        }
    };

    let report =
        SimReport::from_plan(design, &plan, niter as u64, power::fpga_power_w(dev, design));
    (Batch3D::from_vec(nx, ny, nz, b, out), report)
}

/// [`simulate_3d_exec`] on the [`ScalarEngine`], untraced.
pub fn simulate_3d<T: Element, K: StencilOp3D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
) -> (Batch3D<T>, SimReport) {
    let rec = &mut Recorder::disabled();
    simulate_3d_exec(ScalarEngine, dev, design, stages_per_iter, input, niter, rec)
}

/// [`simulate_3d`] for a single mesh.
pub fn simulate_mesh_3d<T: Element, K: StencilOp3D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Mesh3D<T>,
    niter: usize,
) -> (Mesh3D<T>, SimReport) {
    let batch = Batch3D::from_meshes(std::slice::from_ref(input));
    let (out, rep) = simulate_3d(dev, design, stages_per_iter, &batch, niter);
    (out.mesh(0), rep)
}

/// One spatially-blocked pass over the 3D mesh `mesh` of `nx × ny` planes:
/// `M × N` tiles spanning the full `z` extent, streamed plane by plane.
#[allow(clippy::too_many_arguments)]
fn tiled_pass_3d<T: Element, K, E: Engine3D<T, K>>(
    engine: &E,
    dev: &FpgaDevice,
    design: &StencilDesign,
    chain: &[&K],
    mesh: &[T],
    (nx, ny): (usize, usize),
    (tile_m, tile_n): (usize, usize),
    rec: &mut Recorder,
) -> Vec<T> {
    let nz = mesh.len() / (nx * ny);
    let halo = design.p * design.spec.halo_order() / 2;
    let align = (64 / design.spec.elem_bytes).max(1);
    let gx = TileGrid1D::new(nx, tile_m, halo, align);
    let gy = TileGrid1D::new(ny, tile_n, halo, 1);
    let mut out = vec![T::default(); mesh.len()];
    let mut off = Recorder::disabled();
    let mut first_tile = true;
    for ty in gy.tiles() {
        for tx in gx.tiles() {
            let planes = (0..nz).map(|z| {
                let mut buf = Vec::with_capacity(tx.read_len * ty.read_len);
                for y in ty.read_start..ty.read_end() {
                    let s = (z * ny + y) * nx + tx.read_start;
                    buf.extend_from_slice(&mesh[s..s + tx.read_len]);
                }
                buf
            });
            let tile_rec: &mut Recorder = if first_tile { &mut *rec } else { &mut off };
            first_tile = false;
            let unit_cycles = cycles::design_row_cycles(dev, design, tx.read_len, tx.valid_len)
                * ty.read_len as u64;
            let at = Stamps { prefix: "tile0/", base_cycle: 0, unit_cycles };
            let stages =
                chain.iter().map(|k| engine.stage(k, tx.read_len, ty.read_len, nz, nz)).collect();
            let tile_planes = run_chain(stages, nz, planes, tile_rec, at, None);
            let (offx, offy) = (tx.valid_offset(), ty.valid_offset());
            for (z, pl) in tile_planes.into_iter().enumerate() {
                for vy in 0..ty.valid_len {
                    let src = (offy + vy) * tx.read_len + offx;
                    let dst = (z * ny + ty.valid_start + vy) * nx + tx.valid_start;
                    out[dst..dst + tx.valid_len].copy_from_slice(&pl[src..src + tx.valid_len]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, MemKind};
    use sf_kernels::{reference, rtm, Jacobi3D, RtmParams, RtmStage, StencilSpec};
    use sf_mesh::norms;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn jacobi_baseline_bit_exact() {
        let m = Mesh3D::<f32>::random(16, 12, 10, 3, -1.0, 1.0);
        let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let k = Jacobi3D::smoothing();
        let (out, rep) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 9);
        let expect = reference::run_3d(&k, &m, 9);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn jacobi_batched_bit_exact() {
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
        let (out, _) = simulate_3d(&dev(), &ds, &[k], &batch, 6);
        let expect = reference::run_batch_3d(&k, &batch, 6);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn jacobi_tiled_bit_exact() {
        let m = Mesh3D::<f32>::random(60, 44, 10, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 60, ny: 44, nz: 10, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::jacobi(),
            8,
            4,
            ExecMode::Tiled2D { tile_m: 32, tile_n: 24 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let k = Jacobi3D::smoothing();
        let (out, _) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 8);
        let expect = reference::run_3d(&k, &m, 8);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
    }

    #[test]
    fn rtm_fused_pipeline_bit_exact() {
        // The headline integration: 4 fused RK4 stages × p unroll, streamed
        // through plane window buffers, must equal the golden RTM reference.
        let (y, rho, mu) = rtm::demo_workload(14, 13, 12);
        let prm = RtmParams::default();
        let packed = rtm::pack(&y, &rho, &mu);
        let wl = Workload::D3 { nx: 14, ny: 13, nz: 12, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let stages = RtmStage::pipeline(prm);
        let (out_packed, rep) = simulate_mesh_3d(&dev(), &ds, &stages, &packed, 6);
        let out = rtm::unpack(&out_packed);
        let expect = reference::rtm_run(&y, &rho, &mu, prm, 6);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert_eq!(rep.passes, 2);
        assert!(rep.bandwidth_gbs > 0.0);
    }

    #[test]
    fn rtm_batched_bit_exact() {
        let prm = RtmParams::default();
        let mut meshes = Vec::new();
        for i in 0..3 {
            let (y, rho, mu) = rtm::demo_workload(12 + i, 12, 12);
            // same shape required: regenerate at fixed shape with varied seed content
            let _ = (y, rho, mu);
            meshes.push({
                let (y, rho, mu) = rtm::demo_workload(12, 12, 12);
                let mut p = rtm::pack(&y, &rho, &mu);
                // perturb deterministically per mesh so batch members differ
                let v = p.get(6, 6, 6);
                let mut v2 = v;
                v2.0[0] += 0.01 * (i as f32 + 1.0);
                v2.0[6] = v2.0[0];
                v2.0[12] = v2.0[0];
                p.set(6, 6, 6, v2);
                p
            });
        }
        let batch = Batch3D::from_meshes(&meshes);
        let wl = Workload::D3 { nx: 12, ny: 12, nz: 12, batch: 3 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::rtm(),
            1,
            3,
            ExecMode::Batched { b: 3 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let stages = RtmStage::pipeline(prm);
        let (out, _) = simulate_3d(&dev(), &ds, &stages, &batch, 3);
        let expect = {
            let per: Vec<_> =
                meshes.iter().map(|m| reference::run_stages_3d(&stages, m, 3)).collect();
            Batch3D::from_meshes(&per)
        };
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn traced_3d_simulation_matches_untraced() {
        let m = Mesh3D::<f32>::random(16, 12, 10, 3, -1.0, 1.0);
        let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let k = Jacobi3D::smoothing();
        let (plain, rep) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 9);
        let mut rec = crate::Recorder::enabled(ds.freq_hz / 1e6);
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let (traced, rep2) = simulate_3d_exec(ScalarEngine, &dev(), &ds, &[k], &batch, 9, &mut rec);
        assert!(norms::bit_equal(traced.mesh(0).as_slice(), plain.as_slice()));
        assert_eq!(rep.total_cycles, rep2.total_cycles);
        let pipe = rec.find_track("pipeline").unwrap();
        assert_eq!(rec.track_span_cycles(pipe), rep.total_cycles);
        assert_eq!(rec.counter("window.planes_streamed"), 10);
    }
}

#[cfg(test)]
mod rtm_tiling_future_work {
    //! The paper's §V-C future-work item: spatially-blocked RTM.
    //!
    //! "A solution for the limited mesh size is of course spatial blocking,
    //! but it requires p=4. This leads to a tile size dimension M=96 from
    //! (12) given D is 8, which requires a large amount of FPGA internal
    //! memory, making an implementation on the U280 challenging … We leave
    //! this to future work."
    //!
    //! Implementing the future work here surfaces a subtlety the paper's
    //! estimate misses: one *fused* RK4 iteration propagates dependencies
    //! through all four chained stages, i.e. `stages · D/2 = 16` cells per
    //! side — so the tiling halo is `p · 32`, not the `p · 8` that eq. (12)
    //! with `D = 8` implies. At p = 4 the halo alone is 128 > M = 96: the
    //! paper's proposed configuration is structurally impossible, not merely
    //! memory-hungry. What *does* work: p = 1 tiling, which even fits the
    //! real U280; p = 2 needs roughly a 2× device.

    use super::*;
    use crate::design::{synthesize, MemKind, SynthesisError};
    use sf_kernels::{reference, rtm, RtmParams, RtmStage, StencilSpec};
    use sf_mesh::norms;

    #[test]
    fn paper_p4_m96_is_structurally_impossible_for_the_fused_pipeline() {
        let d = FpgaDevice::u280();
        let wl = Workload::D3 { nx: 256, ny: 256, nz: 64, batch: 1 };
        let err = synthesize(
            &d,
            &StencilSpec::rtm(),
            1,
            4,
            ExecMode::Tiled2D { tile_m: 96, tile_n: 96 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap_err();
        // rejected for halo geometry (96 ≤ 4·32), before memory even matters
        assert!(matches!(err, SynthesisError::Invalid(_)), "{err}");
    }

    #[test]
    fn p1_m96_tiling_fits_the_real_u280() {
        // halo p·stages·D/2 = 16 < 96; window memory: 20 URAM per plane-lane
        // × 8 planes × 4 stages = 640 of 960 URAM
        let d = FpgaDevice::u280();
        let wl = Workload::D3 { nx: 256, ny: 256, nz: 64, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::rtm(),
            1,
            1,
            ExecMode::Tiled2D { tile_m: 96, tile_n: 96 },
            MemKind::Hbm,
            &wl,
        )
        .expect("p=1 RTM tiling must fit the U280");
        assert!(ds.resources.uram_blocks <= 960);
        assert!(ds.resources.fits(&d));
    }

    #[test]
    fn p2_m96_tiling_needs_a_2x_device() {
        let wl = Workload::D3 { nx: 256, ny: 256, nz: 64, batch: 1 };
        let mode = ExecMode::Tiled2D { tile_m: 96, tile_n: 96 };
        let spec = StencilSpec::rtm();
        let err =
            synthesize(&FpgaDevice::u280(), &spec, 1, 2, mode, MemKind::Hbm, &wl).unwrap_err();
        assert!(matches!(err, SynthesisError::InsufficientMemory { .. }), "{err}");
        let ds = synthesize(&FpgaDevice::hypothetical_2x(), &spec, 1, 2, mode, MemKind::Hbm, &wl)
            .expect("2x device must fit p=2 tiling");
        assert_eq!(ds.p, 2);
    }

    #[test]
    fn tiled_fused_rtm_is_bit_exact() {
        // reduced geometry, same structure: p=1, halo stages·D/2 = 16,
        // overlapped 40×36 tiles on a 56×40×12 mesh
        let d = FpgaDevice::u280();
        let (y, rho, mu) = rtm::demo_workload(56, 40, 12);
        let prm = RtmParams::default();
        let packed = rtm::pack(&y, &rho, &mu);
        let wl = Workload::D3 { nx: 56, ny: 40, nz: 12, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::rtm(),
            1,
            1,
            ExecMode::Tiled2D { tile_m: 40, tile_n: 36 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let stages = RtmStage::pipeline(prm);
        let (out_packed, rep) = simulate_mesh_3d(&d, &ds, &stages, &packed, 4);
        let out = rtm::unpack(&out_packed);
        let expect = reference::rtm_run(&y, &rho, &mu, prm, 4);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert!(rep.ext_read_bytes > rep.ext_write_bytes, "halo redundancy");
    }
}
