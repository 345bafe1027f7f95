//! Typed executor errors.
//!
//! The resilient execution paths ([`crate::resilient`]) never panic on a
//! datapath fault: a wedged pipeline becomes [`ExecError::Deadlock`] carrying
//! the watchdog's structured diagnosis, an exhausted AXI retry budget becomes
//! [`ExecError::AxiExhausted`], and configuration mismatches that the plain
//! executors assert on become [`ExecError::ShapeMismatch`].
//!
//! [`check_run`] is the one validation of a run's inputs: the fault-aware
//! executors return its error, the plain executors assert on it.

use crate::design::{ExecMode, StencilDesign, Workload};
use sf_faults::WatchdogTrip;
use sf_telemetry::Recorder;

/// Error from a resilient executor run.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The pipeline made no forward progress within the watchdog budget
    /// (e.g. a dropped FIFO element starved a downstream stage).
    Deadlock(WatchdogTrip),
    /// An AXI burst failed more times than the retry policy allows.
    AxiExhausted {
        /// Index of the exhausted burst.
        burst: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The input shape disagrees with the design's execution mode.
    ShapeMismatch {
        /// What disagreed.
        detail: String,
    },
    /// The requested combination is not supported by the resilient path.
    Unsupported {
        /// What is unsupported.
        detail: String,
    },
    /// A checkpoint operation failed (spill I/O, corrupted snapshot on
    /// restore).
    Checkpoint {
        /// What went wrong.
        detail: String,
    },
    /// Rollback recovery gave up: a checkpoint segment kept failing after
    /// the configured number of restore/replay attempts.
    RecoveryExhausted {
        /// Rollbacks attempted on the failing segment.
        rollbacks: u32,
        /// What kept going wrong.
        detail: String,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Deadlock(trip) => write!(f, "pipeline deadlock: {trip}"),
            ExecError::AxiExhausted { burst, attempts } => {
                write!(f, "AXI burst {burst} failed {attempts} times; retry budget exhausted")
            }
            ExecError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            ExecError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            ExecError::Checkpoint { detail } => write!(f, "checkpoint failure: {detail}"),
            ExecError::RecoveryExhausted { rollbacks, detail } => {
                write!(f, "recovery exhausted after {rollbacks} rollback(s): {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<WatchdogTrip> for ExecError {
    fn from(t: WatchdogTrip) -> Self {
        ExecError::Deadlock(t)
    }
}

impl ExecError {
    /// Fold `rec`'s stall attribution into a deadlock diagnosis; every
    /// other error passes through unchanged.
    pub fn with_stalls(self, rec: &Recorder) -> Self {
        match self {
            ExecError::Deadlock(t) => ExecError::Deadlock(t.with_stalls(&rec.stall_breakdown())),
            other => other,
        }
    }
}

/// Validate a run of `niter` iterations of `stages` kernels over `wl`
/// against its design: `niter` must be positive, `stages` must match the
/// spec, the mode must stream whole meshes (`Baseline`/`Batched`, or the
/// tiled mode of `wl`'s dimension when `tiled_ok`), and the batch must be
/// the one the mode runs.
///
/// # Errors
/// [`ExecError::Unsupported`] for a mode the run cannot stream,
/// [`ExecError::ShapeMismatch`] for everything else.
pub fn check_run(
    design: &StencilDesign,
    wl: &Workload,
    stages: usize,
    niter: usize,
    tiled_ok: bool,
) -> Result<(), ExecError> {
    let shape = |detail: String| Err(ExecError::ShapeMismatch { detail });
    if niter == 0 {
        return shape("niter must be positive".to_string());
    }
    if stages != design.spec.stages {
        return shape(format!(
            "design expects {} stages per iteration, got {stages}",
            design.spec.stages
        ));
    }
    let tiled_here = matches!(
        (design.mode, wl),
        (ExecMode::Tiled1D { .. }, Workload::D2 { .. })
            | (ExecMode::Tiled2D { .. }, Workload::D3 { .. })
    );
    let b = wl.batch();
    match design.mode {
        ExecMode::Batched { b: db } if b != db => {
            shape(format!("batch size mismatch: design batch {db} fed batch {b}"))
        }
        ExecMode::Batched { .. } => Ok(()),
        ExecMode::Tiled1D { .. } | ExecMode::Tiled2D { .. } if !(tiled_ok && tiled_here) => {
            Err(ExecError::Unsupported {
                detail: "this run streams whole meshes: it needs a Baseline or Batched design"
                    .to_string(),
            })
        }
        _ if b != 1 => shape(format!("this design runs one mesh, got batch {b}")),
        _ => Ok(()),
    }
}
