#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-fpga — the U280 substrate: a behavioral + cycle-approximate FPGA
//! dataflow simulator
//!
//! The paper synthesizes stencil accelerators with Vivado HLS and measures
//! them on a Xilinx Alveo U280. This crate replaces that hardware path with
//! a simulator that reproduces both *what* the accelerator computes and *how
//! long* it takes, using the same mechanisms the paper's design relies on:
//!
//! * [`device`] — the U280 descriptor (Table I) plus the calibrated
//!   micro-architectural constants (AXI latency/gap, host enqueue latency).
//! * [`resources`] — the resource allocator: DSP accounting via `G_dsp`, and
//!   window-buffer memory **quantized to BRAM36/URAM288 blocks per lane**,
//!   which is what actually limits tile sizes on the real device.
//! * [`clock`] — the routing-congestion frequency model: achievable clock
//!   derated by DSP/memory utilization and unroll depth, calibrated to the
//!   paper's Table II (Poisson p=60 → 250 MHz, Jacobi p=29 → 246 MHz,
//!   RTM p=3 → 261 MHz).
//! * [`axi`] — per-row/burst transfer timing: request-issue gaps, strided
//!   run efficiency (`run/(run+gap)`), channel counts.
//! * [`design`] — [`design::StencilDesign`]: a synthesized configuration
//!   (`V`, `p`, execution mode, memory binding, achieved clock, resources),
//!   produced by [`design::synthesize`].
//! * [`window`] — genuine ring-buffer window buffers and streaming stage
//!   processors: the behavioral heart of the simulator. Cells stream in
//!   row-major order through chained stages exactly as the HLS dataflow
//!   pipeline would, so results are bit-exact vs the golden reference.
//!   Its one chain runner ([`window::run_chain`]) and one pass loop
//!   ([`window::run_passes`]) carry every executor below.
//! * [`cycles`] — the closed-form cycle model behind every report (and
//!   validated against the paper's equations in `sf-model`); for
//!   timing only at paper scale, price [`cycles::plan`] with
//!   [`report::SimReport::from_plan`].
//! * [`exec2d`]/[`exec3d`] — baseline / batched / tiled executors producing
//!   numerics plus a [`report::SimReport`]; [`exec_batch`] fans batch
//!   members across worker threads, and [`resilient`] and [`recovery`] add
//!   fault injection and checkpoint/rollback. Each takes its engine as a
//!   value: [`fast`] holds [`ExecEngine`] (scalar or lane-parallel stage
//!   processors, for kernels with a lane impl) and re-exports the ten
//!   `*_exec` entry points; [`window::ScalarEngine`] runs any kernel.
//! * [`power`] — the xbutil-equivalent power/energy model.
//! * [`profile`] — schedule-level telemetry: feeds an `sf-telemetry`
//!   [`Recorder`] with per-pass/per-tile spans, AXI channel utilisation,
//!   FIFO backpressure and stall attribution; an executor given an enabled
//!   recorder adds behavioral window-buffer events of its first pass.

pub mod axi;
pub mod clock;
pub mod cycles;
pub mod design;
pub mod device;
pub mod error;
pub mod exec2d;
pub mod exec3d;
pub mod exec_batch;
pub mod fast;
pub mod fifo;
pub mod power;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod resilient;
pub mod resources;
pub mod slr;
pub mod trace;
pub mod window;

pub use design::{ExecMode, MemKind, StencilDesign, SynthesisError};
pub use device::{FpgaDevice, MemorySpec};
pub use error::ExecError;
pub use fast::{
    simulate_2d_exec, simulate_2d_recoverable_exec, simulate_2d_resilient_exec, simulate_3d_exec,
    simulate_3d_recoverable_exec, simulate_3d_resilient_exec, simulate_batch_2d_parallel_exec,
    simulate_batch_2d_recoverable_exec, simulate_batch_3d_parallel_exec,
    simulate_batch_3d_recoverable_exec, ExecEngine,
};
pub use report::SimReport;
pub use resilient::{plan_with_faults, FaultyPlan};
pub use resources::ResourceUsage;
pub use sf_faults::{
    AxiVerdict, FaultInjector, FaultKind, FaultPlan, RetryPolicy, Watchdog, WatchdogTrip,
};
pub use sf_recover::{RecoveryConfig, RecoveryPolicy, RecoveryStats};
pub use sf_telemetry::{Recorder, StallClass};
