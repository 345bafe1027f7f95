//! Probe execution: run a kernel's generic update on a recording accessor.
//!
//! The probe is the footprint-extraction half of the abstract-interpretation
//! story (see [`crate::domain`]): instead of trusting a kernel's declared
//! radius, we hand its `update` an accessor that *records every offset it
//! reads* before delegating to a caller-supplied value generator. Because
//! `update` is the one true copy of the kernel math, the recorded set is the
//! kernel's real access footprint — what the window buffers must actually
//! cover — and any abstract domain can ride along in the generated values
//! (an op-counting domain yields footprint + op tally in a single pass).
//!
//! Offsets land in a `BTreeSet`, so iteration order is deterministic
//! regardless of the kernel's internal evaluation order.

use crate::domain::{AbstractOp2D, AbstractOp3D, AbstractValue};
use crate::rtm::{RtmStage, RTM_PACKED_LANES};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Run a 2D kernel once, recording every `(dx, dy)` it reads. Values come
/// from `gen`; returns the update result and the read set.
pub fn record_2d<V, K, G>(op: &K, gen: G) -> (V, BTreeSet<(i32, i32)>)
where
    V: AbstractValue,
    K: AbstractOp2D + ?Sized,
    G: Fn(i32, i32) -> V,
{
    let reads = RefCell::new(BTreeSet::new());
    let at = |dx: i32, dy: i32| {
        reads.borrow_mut().insert((dx, dy));
        gen(dx, dy)
    };
    let v = op.update(&at);
    (v, reads.into_inner())
}

/// Run a 3D kernel once, recording every `(dx, dy, dz)` it reads.
pub fn record_3d<V, K, G>(op: &K, gen: G) -> (V, BTreeSet<(i32, i32, i32)>)
where
    V: AbstractValue,
    K: AbstractOp3D + ?Sized,
    G: Fn(i32, i32, i32) -> V,
{
    let reads = RefCell::new(BTreeSet::new());
    let at = |dx: i32, dy: i32, dz: i32| {
        reads.borrow_mut().insert((dx, dy, dz));
        gen(dx, dy, dz)
    };
    let v = op.update(&at);
    (v, reads.into_inner())
}

/// Run one fused RTM stage (20-lane packed stream) once, recording every
/// offset it reads. Lane values come from `gen(dx, dy, dz)`.
pub fn record_rtm_stage<V, G>(
    stage: &RtmStage,
    gen: G,
) -> ([V; RTM_PACKED_LANES], BTreeSet<(i32, i32, i32)>)
where
    V: AbstractValue,
    G: Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES],
{
    let reads = RefCell::new(BTreeSet::new());
    let at = |dx: i32, dy: i32, dz: i32, c: usize| {
        reads.borrow_mut().insert((dx, dy, dz));
        gen(dx, dy, dz)[c]
    };
    let v = stage.update_packed(&at);
    (v, reads.into_inner())
}

/// Chebyshev radius of a 2D read set: the window reach the kernel needs.
pub fn radius_2d(reads: &BTreeSet<(i32, i32)>) -> usize {
    reads
        .iter()
        .map(|&(dx, dy)| dx.unsigned_abs().max(dy.unsigned_abs()) as usize)
        .max()
        .unwrap_or(0)
}

/// Chebyshev radius of a 3D read set.
pub fn radius_3d(reads: &BTreeSet<(i32, i32, i32)>) -> usize {
    reads
        .iter()
        .map(|&(dx, dy, dz)| {
            dx.unsigned_abs().max(dy.unsigned_abs()).max(dz.unsigned_abs()) as usize
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtm::RtmParams;
    use crate::{Jacobi3D, Poisson2D};

    #[test]
    fn poisson_footprint_is_the_5_point_star() {
        let (v, reads) = record_2d(&Poisson2D, |_, _| 1.0f32);
        assert_eq!(v, 1.0); // fixed point of the smoothing kernel
        let expect: BTreeSet<_> = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)].into_iter().collect();
        assert_eq!(reads, expect);
        assert_eq!(radius_2d(&reads), 1);
    }

    #[test]
    fn jacobi_footprint_is_the_7_point_star() {
        let (_, reads) = record_3d(&Jacobi3D::smoothing(), |_, _, _| 0.5f32);
        assert_eq!(reads.len(), 7);
        assert_eq!(radius_3d(&reads), 1);
        assert!(reads.contains(&(0, 0, 0)) && reads.contains(&(0, 0, -1)));
    }

    #[test]
    fn rtm_stage_footprint_reaches_radius_4_on_every_axis() {
        for s in 1..=4 {
            let stage = RtmStage::new(s, RtmParams::default());
            let (_, reads) = record_rtm_stage(&stage, |_, _, _| [0.0f32; RTM_PACKED_LANES]);
            assert_eq!(radius_3d(&reads), 4, "stage {s}");
            assert!(reads.contains(&(4, 0, 0)) && reads.contains(&(0, 0, -4)));
            // pure star: no diagonal reads
            for &(dx, dy, dz) in &reads {
                let nonzero = (dx != 0) as u32 + (dy != 0) as u32 + (dz != 0) as u32;
                assert!(nonzero <= 1, "non-star read ({dx},{dy},{dz})");
            }
        }
    }

    #[test]
    fn empty_read_set_has_radius_zero() {
        assert_eq!(radius_2d(&BTreeSet::new()), 0);
        assert_eq!(radius_3d(&BTreeSet::new()), 0);
    }
}
