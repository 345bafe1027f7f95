#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-simd — portable `f32` lane abstraction
//!
//! A minimal, dependency-free pack type for the vectorized fast-path
//! executors in `sf_fpga::fast`: [`F32xL`] holds [`LANES`] adjacent `f32`
//! cells and implements the elementwise arithmetic operators with plain
//! fixed-trip-count loops over the backing array. The loops are written so
//! the compiler's autovectorizer turns each operator into a handful of
//! vector instructions on any target — there is **no `unsafe`**, no
//! intrinsics, and no target-feature detection in this crate.
//!
//! ## Bit-exactness contract
//!
//! Every operator applies the scalar IEEE-754 operation independently per
//! lane, in lane order, with no reassociation and no fused multiply-add:
//! lane `i` of `a * b + c` computes exactly `a[i] * b[i] + c[i]` with the
//! same intermediate rounding the scalar executor performs for that cell.
//! Because the stencil kernels are written once, generically over an
//! abstract value (see `sf_kernels::domain`), instantiating them at
//! [`F32xL`] replays the *same* floating-point operation sequence the
//! `f32` instantiation performs — per cell, bit for bit.

use core::ops::{Add, Div, Mul, Sub};

/// Number of `f32` cells a pack advances per step.
///
/// Eight lanes fill a 256-bit vector register and still autovectorize
/// cleanly to two 128-bit operations on narrower targets.
pub const LANES: usize = 8;

/// A pack of [`LANES`] adjacent `f32` cells, processed elementwise.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct F32xL(pub [f32; LANES]);

impl F32xL {
    /// Broadcast one scalar into every lane.
    #[inline]
    pub fn splat(v: f32) -> Self {
        F32xL([v; LANES])
    }

    /// Load a pack from the first [`LANES`] elements of `src`.
    ///
    /// # Panics
    /// Panics if `src` has fewer than [`LANES`] elements.
    #[inline]
    pub fn from_slice(src: &[f32]) -> Self {
        let mut out = [0.0f32; LANES];
        out.copy_from_slice(&src[..LANES]);
        F32xL(out)
    }

    /// Store the pack into the first [`LANES`] elements of `dst`.
    ///
    /// # Panics
    /// Panics if `dst` has fewer than [`LANES`] elements.
    #[inline]
    pub fn write_to(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Lane `i` of the pack.
    #[inline]
    pub fn lane(&self, i: usize) -> f32 {
        self.0[i]
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F32xL {
            type Output = F32xL;
            #[inline]
            fn $method(self, rhs: F32xL) -> F32xL {
                let mut out = [0.0f32; LANES];
                for i in 0..LANES {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                F32xL(out)
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);
elementwise!(Mul, mul, *);
elementwise!(Div, div, /);

/// Apply `f` to `src` in [`LANES`]-wide packs, writing into `dst`; the
/// ragged tail (fewer than [`LANES`] trailing elements) is handled by the
/// scalar fallback `g`.
///
/// # Panics
/// Panics if `dst` is shorter than `src`.
pub fn map_rows<F, G>(src: &[f32], dst: &mut [f32], mut f: F, mut g: G)
where
    F: FnMut(F32xL) -> F32xL,
    G: FnMut(f32) -> f32,
{
    let mut chunks = src.chunks_exact(LANES);
    let mut x = 0usize;
    for chunk in chunks.by_ref() {
        f(F32xL::from_slice(chunk)).write_to(&mut dst[x..x + LANES]);
        x += LANES;
    }
    for (i, &v) in chunks.remainder().iter().enumerate() {
        dst[x + i] = g(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_fills_every_lane() {
        let p = F32xL::splat(1.5);
        for i in 0..LANES {
            assert_eq!(p.lane(i), 1.5);
        }
    }

    #[test]
    fn roundtrip_from_slice_write_to() {
        let src: Vec<f32> = (0..LANES).map(|i| i as f32 * 0.25).collect();
        let mut dst = vec![0.0f32; LANES];
        F32xL::from_slice(&src).write_to(&mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn operators_are_elementwise_and_bit_exact_vs_scalar() {
        // Awkward values: subnormals, values that round, negative zero.
        let a = F32xL([1.0e-40, 0.1, -0.0, 3.5, -7.25, 1.0e20, 0.3, -0.7]);
        let b = F32xL([2.0, 0.2, 5.0, -0.5, 0.125, 3.0, 0.7, -0.3]);
        let sum = a + b;
        let dif = a - b;
        let mul = a * b;
        let div = a / b;
        for i in 0..LANES {
            assert_eq!(sum.lane(i).to_bits(), (a.lane(i) + b.lane(i)).to_bits(), "add lane {i}");
            assert_eq!(dif.lane(i).to_bits(), (a.lane(i) - b.lane(i)).to_bits(), "sub lane {i}");
            assert_eq!(mul.lane(i).to_bits(), (a.lane(i) * b.lane(i)).to_bits(), "mul lane {i}");
            assert_eq!(div.lane(i).to_bits(), (a.lane(i) / b.lane(i)).to_bits(), "div lane {i}");
        }
    }

    #[test]
    fn no_fma_contraction_in_mul_add() {
        // (a * b) + c must round twice, exactly like the scalar executor.
        let a = F32xL::splat(1.0 + f32::EPSILON);
        let b = F32xL::splat(1.0 + f32::EPSILON);
        let c = F32xL::splat(-1.0);
        let packed = a * b + c;
        let scalar = (1.0 + f32::EPSILON) * (1.0 + f32::EPSILON) + -1.0;
        for i in 0..LANES {
            assert_eq!(packed.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn map_rows_covers_ragged_tails() {
        for len in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
            let src: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let mut dst = vec![0.0f32; len];
            map_rows(&src, &mut dst, |p| p + F32xL::splat(1.0), |v| v + 1.0);
            for (i, &v) in dst.iter().enumerate() {
                assert_eq!(v, i as f32 + 1.0, "len {len} index {i}");
            }
        }
    }
}
