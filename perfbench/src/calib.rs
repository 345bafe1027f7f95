//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants whose load changes the
//! speed of the machine from one second to the next — the memory system by
//! up to two times on the machines it was tuned on. Host times are
//! therefore reported at a reference speed: each operation's times are
//! multiplied by a calibration kernel's reference time over that kernel's
//! time measured just before and just after the operation. The kernels are
//! fixed work written in the benchmark itself, so a change to the program
//! moves an operation's time but not the kernel's and shows in full, while
//! a change in the host's load moves both and cancels.
//!
//! Two kernels match the two kinds of work the benchmark times: a
//! memory-bound stencil sweep for the behavioral streams, and a
//! register-bound integer loop for design queries (DSE, preflight, set-up),
//! which run from the caches.

use std::hint::black_box;
use std::time::Instant;

/// Grid side of the memory sweep: 1024² f32 cells, 4 MB per grid, twice a
/// core's L2 cache, like the workloads' streams.
const SIDE: usize = 1024;

/// Seconds of one memory sweep at the reference speed.
pub const MEMORY_REFERENCE_S: f64 = 0.002;

/// Seconds of one compute loop at the reference speed.
pub const COMPUTE_REFERENCE_S: f64 = 0.0025;

/// Repetitions per calibration; the median is kept.
const REPS: usize = 3;

/// One calibration: the time of each kernel, seconds.
#[derive(Copy, Clone, Debug)]
pub struct Speed {
    memory_s: f64,
    compute_s: f64,
}

impl Speed {
    /// Measure both kernels now.
    pub fn measure() -> Speed {
        Speed { memory_s: memory_s(), compute_s: compute_s() }
    }

    /// Factors scaling stream times and query times, measured between
    /// `self` and `later`, to the reference speed.
    pub fn scales(&self, later: &Speed) -> Scales {
        Scales {
            stream: MEMORY_REFERENCE_S / ((self.memory_s + later.memory_s) / 2.0),
            query: COMPUTE_REFERENCE_S / ((self.compute_s + later.compute_s) / 2.0),
        }
    }
}

/// Factors that scale measured host times to the reference speed.
#[derive(Copy, Clone, Debug)]
pub struct Scales {
    /// For behavioral streams.
    pub stream: f64,
    /// For design queries and set-up.
    pub query: f64,
}

fn median_of(mut t: Vec<f64>) -> f64 {
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Median seconds of a 5-point stencil sweep over the grid.
fn memory_s() -> f64 {
    let mut a: Vec<f32> = (0..SIDE * SIDE).map(|i| (i % 97) as f32 * 0.01).collect();
    let mut b = vec![0.0f32; SIDE * SIDE];
    median_of(
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for y in 1..SIDE - 1 {
                    for x in 1..SIDE - 1 {
                        let i = y * SIDE + x;
                        b[i] = 0.25 * (a[i - 1] + a[i + 1] + a[i - SIDE] + a[i + SIDE]);
                    }
                }
                std::mem::swap(&mut a, &mut b);
                black_box(&a);
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Median seconds of a dependent integer multiply/xor chain.
fn compute_s() -> f64 {
    median_of(
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                let mut s = 0u64;
                for i in 0..2_000_000u64 {
                    s = s.wrapping_add(black_box(i).wrapping_mul(i) ^ (s >> 3));
                }
                black_box(s);
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_reference_over_measured() {
        let a = Speed { memory_s: 0.004, compute_s: 0.005 };
        let b = Speed { memory_s: 0.004, compute_s: 0.005 };
        let k = a.scales(&b);
        assert!((k.stream - 0.5).abs() < 1e-12);
        assert!((k.query - 0.5).abs() < 1e-12);
        let m = Speed::measure();
        assert!(m.memory_s > 0.0 && m.compute_s > 0.0);
    }
}
