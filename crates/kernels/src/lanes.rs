//! Lane-parallel kernel evaluation: the bridge between the generic
//! [`AbstractValue`] kernel bodies and the `sf-simd` pack type.
//!
//! The fast-path executors (`sf_fpga::fast`) advance [`sf_simd::LANES`]
//! adjacent cells per step. Three pieces make that possible without a
//! second copy of any kernel:
//!
//! * [`F32xL`] implements [`AbstractValue`], so every generic `update`
//!   body in this crate can be instantiated at the pack type. Each lane
//!   replays the *identical* floating-point operation sequence the `f32`
//!   instantiation performs — the per-cell result is bit-exact by
//!   construction (elementwise IEEE ops, no reassociation, no FMA).
//! * [`LaneElement`] extends [`Element`] with the two moves between a run
//!   of `LANES` mesh elements and packs: `gather_lane` loads *one*
//!   component of `LANES` adjacent cells into an [`F32xL`] (`f32` cells are
//!   a single contiguous load; [`VecN`] cells a strided load of component
//!   `c`), and `scatter` stores the kernel's result packs back.
//! * [`LaneOp2D`] / [`LaneOp3D`] are the lane-parallel counterparts of
//!   [`StencilOp2D`] / [`StencilOp3D`]: `apply_lanes` evaluates the update
//!   for `LANES` adjacent cells at once, given a neighborhood accessor
//!   `at(.., c)` that returns the pack of component `c` at an offset. A
//!   kernel reads only the components it uses, so a many-component cell
//!   (RTM's 20-lane stream) is never transposed whole per neighbour read.
//!   Implementations delegate to the same generic `update` the scalar
//!   `apply` uses.
//!
//! Only kernels whose updates are written generically carry a lane impl
//! (the paper's three applications and the random star stencils); kernels
//! with hand-written scalar bodies — e.g. [`crate::wave2d`] — simply stay
//! on the scalar executors.

use crate::domain::{AbstractOp2D, AbstractOp3D, AbstractValue};
use crate::jacobi3d::Jacobi3D;
use crate::op2d::StencilOp2D;
use crate::op3d::StencilOp3D;
use crate::poisson::Poisson2D;
use crate::rtm::{RtmPacked, RtmStage, RTM_PACKED_LANES};
use crate::star::{StarStencil2D, StarStencil3D};
use sf_mesh::{Element, VecN};
use sf_simd::{F32xL, LANES};

impl AbstractValue for F32xL {
    #[inline(always)]
    fn constant(c: f32) -> Self {
        F32xL::splat(c)
    }
}

/// An [`Element`] whose meshes the fast path can process `LANES` cells at
/// a time: per-component loads from a run of adjacent elements, and a
/// store of the kernel's result packs.
pub trait LaneElement: Element {
    /// The pack representation of `LANES` adjacent cells of this element.
    type Lanes: Copy;

    /// Load component `c` of the `LANES` elements at `row[x..x + LANES]`
    /// into one pack (`c` is always 0 for scalar elements).
    ///
    /// # Panics
    /// Panics if the run extends past the end of `row` or `c` is not a
    /// component of the element.
    fn gather_lane(row: &[Self], x: usize, c: usize) -> F32xL;

    /// Store packs back into the `LANES` elements at `row[x..x + LANES]`.
    ///
    /// # Panics
    /// Panics if the run extends past the end of `row`.
    fn scatter(lanes: Self::Lanes, row: &mut [Self], x: usize);
}

impl LaneElement for f32 {
    type Lanes = F32xL;

    #[inline]
    fn gather_lane(row: &[Self], x: usize, c: usize) -> F32xL {
        debug_assert_eq!(c, 0, "f32 cells have one component");
        // Clamping the start leaves one range check per load instead of
        // the two of `row[x..x + LANES]`; a run past the end still panics.
        F32xL::from_slice(&row[x.min(row.len())..])
    }

    #[inline]
    fn scatter(lanes: F32xL, row: &mut [Self], x: usize) {
        lanes.write_to(&mut row[x..x + LANES]);
    }
}

impl<const N: usize> LaneElement for VecN<N> {
    /// One pack per component (structure-of-arrays across the `LANES` cells).
    type Lanes = [F32xL; N];

    #[inline]
    fn gather_lane(row: &[Self], x: usize, c: usize) -> F32xL {
        let cells = &row[x..x + LANES];
        F32xL(std::array::from_fn(|i| cells[i].0[c]))
    }

    #[inline]
    fn scatter(lanes: [F32xL; N], row: &mut [Self], x: usize) {
        for (c, pack) in lanes.iter().enumerate() {
            for i in 0..LANES {
                row[x + i].0[c] = pack.lane(i);
            }
        }
    }
}

/// A 2D stencil the fast path can evaluate `LANES` cells at a time.
///
/// `apply_lanes` must compute, lane for lane, exactly what
/// [`StencilOp2D::apply`] computes for the corresponding cell — every
/// implementation here guarantees that by instantiating the *same* generic
/// update at [`F32xL`] instead of `f32`.
pub trait LaneOp2D<T: LaneElement>: StencilOp2D<T> {
    /// The per-pack update over a neighborhood accessor `at(dx, dy, c)`
    /// that loads component `c` of the `LANES` adjacent cells at offset
    /// `(dx, dy)`.
    fn apply_lanes<F: Fn(i32, i32, usize) -> F32xL>(&self, at: &F) -> T::Lanes;
}

/// The 3D twin of [`LaneOp2D`].
pub trait LaneOp3D<T: LaneElement>: StencilOp3D<T> {
    /// The per-pack update over a component accessor `at(dx, dy, dz, c)`.
    fn apply_lanes<F: Fn(i32, i32, i32, usize) -> F32xL>(&self, at: &F) -> T::Lanes;
}

impl<T: LaneElement, K: LaneOp2D<T>> LaneOp2D<T> for &K {
    fn apply_lanes<F: Fn(i32, i32, usize) -> F32xL>(&self, at: &F) -> T::Lanes {
        (**self).apply_lanes(at)
    }
}

impl<T: LaneElement, K: LaneOp3D<T>> LaneOp3D<T> for &K {
    fn apply_lanes<F: Fn(i32, i32, i32, usize) -> F32xL>(&self, at: &F) -> T::Lanes {
        (**self).apply_lanes(at)
    }
}

impl LaneOp2D<f32> for Poisson2D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, usize) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(&|dx, dy| at(dx, dy, 0))
    }
}

impl LaneOp2D<f32> for StarStencil2D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, usize) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(&|dx, dy| at(dx, dy, 0))
    }
}

impl LaneOp3D<f32> for Jacobi3D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, i32, usize) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(&|dx, dy, dz| at(dx, dy, dz, 0))
    }
}

impl LaneOp3D<f32> for StarStencil3D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, i32, usize) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(&|dx, dy, dz| at(dx, dy, dz, 0))
    }
}

impl LaneOp3D<RtmPacked> for RtmStage {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, i32, usize) -> F32xL>(
        &self,
        at: &F,
    ) -> [F32xL; RTM_PACKED_LANES] {
        self.update_packed::<F32xL, _>(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-mesh value for cell (x, y).
    fn cell(x: i32, y: i32) -> f32 {
        ((x * 31 + y * 7) % 13) as f32 * 0.125 - 0.5
    }

    /// The pack of lanes `f(0) .. f(LANES - 1)`.
    fn pack(f: impl Fn(i32) -> f32) -> F32xL {
        F32xL(std::array::from_fn(|i| f(i as i32)))
    }

    #[test]
    fn poisson_lanes_bit_exact_vs_scalar_apply() {
        let x0 = 3i32;
        let lanes = Poisson2D.apply_lanes(&|dx, dy, _| pack(|i| cell(x0 + i + dx, 10 + dy)));
        for i in 0..LANES {
            let scalar = Poisson2D.apply(|dx, dy| cell(x0 + i as i32 + dx, 10 + dy));
            assert_eq!(lanes.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn star_lanes_bit_exact_vs_scalar_apply() {
        let k = StarStencil2D::laplace9_order4(0.1, 0.4);
        let lanes = k.apply_lanes(&|dx, dy, _| pack(|i| cell(i + dx, dy)));
        for i in 0..LANES {
            let scalar = k.apply(|dx, dy| cell(i as i32 + dx, dy));
            assert_eq!(lanes.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn jacobi_lanes_bit_exact_vs_scalar_apply() {
        let k = Jacobi3D::smoothing();
        let f = |x: i32, y: i32, z: i32| ((x * 5 + y * 3 + z) % 11) as f32 * 0.1;
        let lanes = k.apply_lanes(&|dx, dy, dz, _| pack(|i| f(i + dx, dy, dz)));
        for i in 0..LANES {
            let scalar = k.apply(|dx, dy, dz| f(i as i32 + dx, dy, dz));
            assert_eq!(lanes.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn f32_gather_lane_loads_the_run() {
        let row: Vec<f32> = (0..LANES + 5).map(|i| i as f32 * 0.5 - 1.0).collect();
        for x in [0, 3] {
            let p = <f32 as LaneElement>::gather_lane(&row, x, 0);
            for i in 0..LANES {
                assert_eq!(p.lane(i).to_bits(), row[x + i].to_bits(), "x {x} lane {i}");
            }
        }
    }

    #[test]
    fn vecn_gather_lane_picks_one_component() {
        let row: Vec<RtmPacked> = (0..LANES + 5)
            .map(|i| VecN(std::array::from_fn(|c| (i * RTM_PACKED_LANES + c) as f32 + 0.25)))
            .collect();
        for x in [0, 3] {
            for c in 0..RTM_PACKED_LANES {
                let p = <RtmPacked as LaneElement>::gather_lane(&row, x, c);
                for i in 0..LANES {
                    assert_eq!(
                        p.lane(i).to_bits(),
                        row[x + i].0[c].to_bits(),
                        "x {x} c {c} lane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn vecn_gather_scatter_roundtrips_and_transposes() {
        let row: Vec<VecN<3>> =
            (0..LANES + 4).map(|i| VecN([i as f32, i as f32 + 0.5, -(i as f32)])).collect();
        let packs: [F32xL; 3] =
            std::array::from_fn(|c| <VecN<3> as LaneElement>::gather_lane(&row, 2, c));
        for (c, pack) in packs.iter().enumerate() {
            for i in 0..LANES {
                assert_eq!(pack.lane(i), row[2 + i].0[c], "component {c} lane {i}");
            }
        }
        let mut out = vec![VecN::<3>::default(); LANES + 4];
        <VecN<3> as LaneElement>::scatter(packs, &mut out, 2);
        assert_eq!(&out[2..2 + LANES], &row[2..2 + LANES]);
    }

    #[test]
    fn rtm_stage_lanes_bit_exact_vs_scalar_apply() {
        use crate::rtm::RtmParams;
        let stages = RtmStage::pipeline(RtmParams::default());
        let f = |x: i32, y: i32, z: i32, c: usize| {
            (((x * 3 + y * 5 + z * 7 + c as i32) % 17) as f32) * 0.01 + 0.1
        };
        for (si, stage) in stages.iter().enumerate() {
            let lanes = stage.apply_lanes(&|dx, dy, dz, c| pack(|i| f(i + dx, dy, dz, c)));
            for i in 0..LANES {
                let scalar: RtmPacked = stage.apply(|dx, dy, dz| {
                    let mut v = VecN::<RTM_PACKED_LANES>::default();
                    for c in 0..RTM_PACKED_LANES {
                        v.0[c] = f(i as i32 + dx, dy, dz, c);
                    }
                    v
                });
                for (c, pack) in lanes.iter().enumerate() {
                    assert_eq!(
                        pack.lane(i).to_bits(),
                        scalar.0[c].to_bits(),
                        "stage {si} component {c} lane {i}"
                    );
                }
            }
        }
    }
}
