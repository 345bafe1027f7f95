//! Window buffers, streaming stage processors and the one streaming core
//! every executor runs — the behavioral heart of the dataflow simulator.
//!
//! An HLS stencil pipeline streams the mesh in row-major order and keeps the
//! last `D` rows (2D) or planes (3D) in on-chip cyclic buffers so every
//! neighborhood read is served on-chip (Fig. 1 of the paper, "window
//! buffers"). [`StageProcessor2D`]/[`StageProcessor3D`] implement exactly
//! that: a ring of `2r+1` rows/planes; a stage emits output row `y` once
//! input row `y+r` has arrived. Chaining `p × stages` processors reproduces
//! the unrolled iterative pipeline of Fig. 2.
//!
//! As on the hardware, the window is a fixed set of buffers: once it is
//! full, each arriving unit evicts the oldest one, and the stage writes its
//! next output unit in place into that evicted unit — every cell of it,
//! since it still holds stale data. Units move down the chain by value, so
//! in steady state a stage allocates nothing; it allocates only while its
//! window fills and for its `r` trailing drain units.
//!
//! The processors are *seam-aware* for batched execution: the stream may
//! carry `B` stacked meshes, and a cell is only interior with respect to its
//! own mesh (`mesh_extent`-periodic in the streaming dimension), so stencils
//! never read across a batch seam.
//!
//! Above the processors everything is dimension-agnostic: a 2D row and a
//! 3D plane are both a *unit* of the stream, and every stage is a
//! [`Stage`]. [`run_chain`] streams units through one chain — telemetry
//! hooks always, fault hooks ([`ChainFaults`]) optionally — and
//! [`run_passes`] drives one chain per pipeline pass ([`pass_sizes`]) over a
//! flat mesh state. Every executor, plain, batch-parallel, fault-aware,
//! recoverable, tiled or sharded, streams through these two functions.
//!
//! Stages come from an **execution engine** ([`Engine2D`]/[`Engine3D`]): a
//! factory for the per-stage processors, passed by value to every
//! executor. The [`ScalarEngine`] builds the cell-at-a-time
//! [`StageProcessor2D`]/[`StageProcessor3D`] for any kernel;
//! [`crate::fast::ExecEngine`] builds either those or the lane-parallel
//! processors for kernels with a lane impl, so the streaming schedule,
//! telemetry hooks, fault hooks and drain logic are shared — and therefore
//! byte-identical — across engines.

use crate::design::StencilDesign;
use crate::error::ExecError;
use sf_faults::{FaultInjector, StreamFault, Watchdog, WatchdogTrip};
use sf_kernels::{StencilOp2D, StencilOp3D};
use sf_mesh::Element;
use sf_telemetry::{Recorder, TrackId};

/// Fixed-capacity cyclic window of stream units (rows or planes),
/// addressable by absolute unit index.
///
/// Once the window is full, every push evicts the oldest unit and hands it
/// back to the caller. The stage processors reuse that evicted unit as the
/// storage of their next output unit, so in steady state a stage allocates
/// nothing: only while its window fills and for its trailing drain units.
/// Resident units are kept oldest first (the slot handles rotate on each
/// push; cells never move), so a stage borrows its whole neighbourhood as
/// one slice via [`RingBuffer::window`].
#[derive(Debug)]
pub struct RingBuffer<T> {
    /// Resident units, oldest first.
    slots: Vec<Vec<T>>,
    capacity: usize,
    /// Number of units pushed so far; unit `i` is resident while
    /// `i ≥ pushed − resident`.
    pushed: usize,
}

impl<T> RingBuffer<T> {
    /// Create a ring holding up to `capacity` units.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RingBuffer { slots: Vec::with_capacity(capacity), capacity, pushed: 0 }
    }

    /// Push the next unit; once full, evict the oldest unit and return it.
    pub fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.pushed += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(unit);
            None
        } else {
            self.slots.rotate_left(1);
            Some(std::mem::replace(&mut self.slots[self.capacity - 1], unit))
        }
    }

    /// Borrow unit `abs` (must still be resident).
    pub fn get(&self, abs: usize) -> &[T] {
        &self.window(abs, 1)[0]
    }

    /// Borrow the `len` consecutive units starting at `first`, oldest
    /// first (all must still be resident).
    pub fn window(&self, first: usize, len: usize) -> &[Vec<T>] {
        debug_assert!(
            first + len <= self.pushed && first + self.slots.len() >= self.pushed,
            "units {first}..{} not resident (pushed {}, resident {})",
            first + len,
            self.pushed,
            self.slots.len()
        );
        &self.slots[first + self.slots.len() - self.pushed..][..len]
    }

    /// Units pushed so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Units currently resident (≤ capacity).
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One pipeline stage streaming rows of a (possibly batched) 2D mesh.
pub struct StageProcessor2D<T: Element, K: StencilOp2D<T>> {
    k: K,
    nx: usize,
    stream_rows: usize,
    /// Rows per independent mesh in the stream (seam period).
    mesh_ny: usize,
    r: usize,
    ring: RingBuffer<T>,
    next_out: usize,
}

impl<T: Element, K: StencilOp2D<T>> StageProcessor2D<T, K> {
    /// Create a processor for a stream of `stream_rows` rows of `nx` cells,
    /// where every `mesh_ny` rows form an independent mesh.
    pub fn new(k: K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self {
        assert!(stream_rows.is_multiple_of(mesh_ny), "stream must be whole meshes");
        let r = k.radius();
        StageProcessor2D {
            k,
            nx,
            stream_rows,
            mesh_ny,
            r,
            ring: RingBuffer::new(2 * r + 1),
            next_out: 0,
        }
    }

    /// Compute output row `y` into `reuse` (a row the window evicted) or,
    /// while the window fills and during the drain, into a fresh row.
    /// Every cell is written, since a reused row holds a stale unit.
    fn emit(&mut self, y: usize, reuse: Option<Vec<T>>) -> Vec<T> {
        let (nx, r, k) = (self.nx, self.r, &self.k);
        let mut out = reuse.unwrap_or_else(|| vec![T::default(); nx]);
        let ly = y % self.mesh_ny;
        if ly >= r && ly + r < self.mesh_ny {
            let rows = self.ring.window(y - r, 2 * r + 1);
            let center = &rows[r];
            for (x, o) in out.iter_mut().enumerate() {
                *o = if x >= r && x + r < nx {
                    k.apply(|dx, dy| rows[(dy + r as i32) as usize][(x as i32 + dx) as usize])
                } else {
                    k.on_boundary(center[x])
                };
            }
        } else {
            write_boundary(&mut out, self.ring.get(y), |c| k.on_boundary(c));
        }
        self.next_out = y + 1;
        out
    }

    /// Feed the next input row; returns the output row that became ready
    /// (none while the window is filling).
    pub fn push_row(&mut self, row: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(row.len(), self.nx, "row width mismatch");
        assert!(self.ring.pushed() < self.stream_rows, "stream overrun");
        let evicted = self.ring.push(row);
        let j = self.ring.pushed() - 1;
        (j >= self.r).then(|| self.emit(j - self.r, evicted))
    }

    /// After the last input row, drain the trailing `r` output rows.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        assert_eq!(self.ring.pushed(), self.stream_rows, "stream incomplete");
        let mut out = Vec::new();
        while self.next_out < self.stream_rows {
            out.push(self.emit(self.next_out, None));
        }
        out
    }

    /// Rows currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.ring.resident()
    }
}

/// One pipeline stage streaming planes of a (possibly batched) 3D mesh.
/// A plane is `nx × ny` cells, row-major.
pub struct StageProcessor3D<T: Element, K: StencilOp3D<T>> {
    k: K,
    nx: usize,
    ny: usize,
    stream_planes: usize,
    /// Planes per independent mesh in the stream (seam period).
    mesh_nz: usize,
    r: usize,
    ring: RingBuffer<T>,
    next_out: usize,
}

impl<T: Element, K: StencilOp3D<T>> StageProcessor3D<T, K> {
    /// Create a processor for a stream of `stream_planes` planes of
    /// `nx × ny` cells, `mesh_nz` planes per independent mesh.
    pub fn new(k: K, nx: usize, ny: usize, stream_planes: usize, mesh_nz: usize) -> Self {
        assert!(stream_planes.is_multiple_of(mesh_nz), "stream must be whole meshes");
        let r = k.radius();
        StageProcessor3D {
            k,
            nx,
            ny,
            stream_planes,
            mesh_nz,
            r,
            ring: RingBuffer::new(2 * r + 1),
            next_out: 0,
        }
    }

    /// Compute output plane `z` into `reuse` (a plane the window evicted)
    /// or a fresh plane, writing every cell.
    fn emit(&mut self, z: usize, reuse: Option<Vec<T>>) -> Vec<T> {
        let (nx, ny, r, k) = (self.nx, self.ny, self.r, &self.k);
        let mut out = reuse.unwrap_or_else(|| vec![T::default(); nx * ny]);
        let lz = z % self.mesh_nz;
        if lz >= r && lz + r < self.mesh_nz {
            let planes = self.ring.window(z - r, 2 * r + 1);
            let center = &planes[r];
            for y in 0..ny {
                let y_interior = y >= r && y + r < ny;
                for x in 0..nx {
                    out[y * nx + x] = if y_interior && x >= r && x + r < nx {
                        k.apply(|dx, dy, dz| {
                            let plane = &planes[(dz + r as i32) as usize];
                            plane[((y as i32 + dy) as usize) * nx + (x as i32 + dx) as usize]
                        })
                    } else {
                        k.on_boundary(center[y * nx + x])
                    };
                }
            }
        } else {
            write_boundary(&mut out, self.ring.get(z), |c| k.on_boundary(c));
        }
        self.next_out = z + 1;
        out
    }

    /// Feed the next plane; returns the output plane that became ready.
    pub fn push_plane(&mut self, plane: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(plane.len(), self.nx * self.ny, "plane size mismatch");
        assert!(self.ring.pushed() < self.stream_planes, "stream overrun");
        let evicted = self.ring.push(plane);
        let j = self.ring.pushed() - 1;
        (j >= self.r).then(|| self.emit(j - self.r, evicted))
    }

    /// Drain the trailing `r` planes.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        assert_eq!(self.ring.pushed(), self.stream_planes, "stream incomplete");
        let mut out = Vec::new();
        while self.next_out < self.stream_planes {
            out.push(self.emit(self.next_out, None));
        }
        out
    }

    /// Planes currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.ring.resident()
    }
}

/// Write `on_boundary` of every cell of `src` into `out` — a whole
/// boundary row or plane, or a boundary margin of one.
#[inline]
pub(crate) fn write_boundary<T: Copy>(out: &mut [T], src: &[T], on_boundary: impl Fn(T) -> T) {
    debug_assert_eq!(out.len(), src.len());
    for (o, c) in out.iter_mut().zip(src) {
        *o = on_boundary(*c);
    }
}

/// One streaming pipeline stage, as seen by the chain runner: units (rows
/// in 2D, planes in 3D) go in, ready units come out, trailing units drain
/// at the end. Implemented by the scalar [`StageProcessor2D`] /
/// [`StageProcessor3D`] and the fast path's lane-parallel processors.
pub trait Stage<T: Element> {
    /// Plural name of the streamed unit (`"rows"` or `"planes"`), used in
    /// telemetry labels and watchdog diagnoses.
    const UNITS: &'static str;
    /// Feed the next input unit; returns the output unit that became ready
    /// (none while the window is filling).
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>>;
    /// After the last input unit, drain the trailing output units.
    fn finish(&mut self) -> Vec<Vec<T>>;
    /// Units currently held in the window buffer.
    fn window_fill(&self) -> usize;
}

impl<T: Element, K: StencilOp2D<T>> Stage<T> for StageProcessor2D<T, K> {
    const UNITS: &'static str = "rows";
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.push_row(unit)
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        StageProcessor2D::finish(self)
    }
    fn window_fill(&self) -> usize {
        StageProcessor2D::window_fill(self)
    }
}

impl<T: Element, K: StencilOp3D<T>> Stage<T> for StageProcessor3D<T, K> {
    const UNITS: &'static str = "planes";
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.push_plane(unit)
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        StageProcessor3D::finish(self)
    }
    fn window_fill(&self) -> usize {
        StageProcessor3D::window_fill(self)
    }
}

/// An execution engine for 2D chains: a factory turning one kernel of the
/// chain into a streaming stage. The chain runner owns everything else
/// (feed cascade, telemetry, faults, drain), so two engines that build
/// cell-for-cell-equal stages produce byte-identical runs.
pub trait Engine2D<T: Element, K> {
    /// The stage processor this engine builds.
    type Stage: Stage<T>;
    /// Build the stage for kernel `k` over a stream of `stream_rows` rows
    /// of `nx` cells, `mesh_ny` rows per independent mesh.
    fn stage(&self, k: &K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self::Stage;
}

/// The 3D twin of [`Engine2D`].
pub trait Engine3D<T: Element, K> {
    /// The stage processor this engine builds.
    type Stage: Stage<T>;
    /// Build the stage for kernel `k` over a stream of `stream_planes`
    /// planes of `nx × ny` cells, `mesh_nz` planes per independent mesh.
    fn stage(
        &self,
        k: &K,
        nx: usize,
        ny: usize,
        stream_planes: usize,
        mesh_nz: usize,
    ) -> Self::Stage;
}

/// The cell-at-a-time engine: builds the classic scalar stage processors.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScalarEngine;

impl<T: Element, K: StencilOp2D<T> + Clone> Engine2D<T, K> for ScalarEngine {
    type Stage = StageProcessor2D<T, K>;
    fn stage(&self, k: &K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self::Stage {
        StageProcessor2D::new(k.clone(), nx, stream_rows, mesh_ny)
    }
}

impl<T: Element, K: StencilOp3D<T> + Clone> Engine3D<T, K> for ScalarEngine {
    type Stage = StageProcessor3D<T, K>;
    fn stage(
        &self,
        k: &K,
        nx: usize,
        ny: usize,
        stream_planes: usize,
        mesh_nz: usize,
    ) -> Self::Stage {
        StageProcessor3D::new(k.clone(), nx, ny, stream_planes, mesh_nz)
    }
}

/// Telemetry placement of a chain run: per-stage swimlanes named
/// `{prefix}stage:{i}`, and input unit `j` stamped at cycle
/// `base_cycle + j · unit_cycles` (the streaming schedule).
#[derive(Copy, Clone, Debug, Default)]
pub struct Stamps<'a> {
    /// Track-name prefix of the per-stage swimlanes.
    pub prefix: &'a str,
    /// Cycle at which the first input unit arrives.
    pub base_cycle: u64,
    /// Cycles between consecutive input units.
    pub unit_cycles: u64,
}

/// Fault hooks of a chain run: the injector consulted at every stream
/// opportunity, the no-progress budget of the watchdog each chain run
/// starts, and the watchdog trip that stopped the run, if any.
///
/// * **window-buffer cells** — a [`FaultKind::BitFlip`](sf_faults::FaultKind)
///   flips one bit of one lane before the cell enters the first window
///   buffer; the run completes but the output checksum vs the golden
///   reference catches it.
/// * **stream elements** — `FifoDrop` starves the downstream stages, which
///   the [`Watchdog`] reports as a deadlock with a structured diagnosis;
///   `FifoDup` overflows the input FIFO (the surplus element is discarded at
///   the full queue) and shifts the stream; `FifoCorrupt` mangles a payload.
pub struct ChainFaults<'a> {
    inj: &'a mut FaultInjector,
    budget: u64,
    trip: Option<WatchdogTrip>,
}

impl<'a> ChainFaults<'a> {
    /// Hooks consulting `inj`, each chain run watched with a budget of
    /// `budget` cycles without forward progress.
    pub fn new(inj: &'a mut FaultInjector, budget: u64) -> Self {
        ChainFaults { inj, budget, trip: None }
    }

    /// `out` if every run completed, else the trip as
    /// [`ExecError::Deadlock`].
    ///
    /// # Errors
    /// [`ExecError::Deadlock`] if a watchdog tripped.
    pub fn result<R>(self, out: R) -> Result<R, ExecError> {
        match self.trip {
            Some(t) => Err(ExecError::Deadlock(t)),
            None => Ok(out),
        }
    }

    /// Consult the injector for input unit `j`: apply a window bit flip or
    /// a payload corruption in place, and return how many copies of the
    /// unit reach the input FIFO (0 when dropped, 2 when duplicated).
    fn inject<T: Element>(&mut self, unit: &mut [T], j: usize) -> usize {
        if let Some(flip) = self.inj.window_bitflip(0, j, unit.len(), T::LANES) {
            apply_bitflip(unit, flip.cell, flip.lane, flip.bit);
        }
        match self.inj.stream_fault(j) {
            StreamFault::Drop => 0,
            StreamFault::Dup => 2,
            StreamFault::Corrupt => {
                // Deterministic corruption: mangle the mantissa of the
                // middle cell's first lane.
                apply_bitflip(unit, unit.len() / 2, 0, 22);
                1
            }
            StreamFault::None => 1,
        }
    }
}

/// Flip bit `bit` of lane `lane` of `cell` in a streamed unit.
fn apply_bitflip<T: Element>(unit: &mut [T], cell: usize, lane: usize, bit: u32) {
    let mut v = unit[cell];
    let bits = v.lane(lane).to_bits() ^ (1u32 << (bit % 32));
    v.set_lane(lane, f32::from_bits(bits));
    unit[cell] = v;
}

/// Per-stage telemetry state of a chain run.
struct StageTrace {
    track: TrackId,
    primed: bool,
}

/// Push `unit` into stage `from`: an emitted unit continues down the chain,
/// a buffered one stops. Returns whether a unit left the chain.
fn feed<T: Element, S: Stage<T>>(
    stages: &mut [S],
    tr: &mut [StageTrace],
    from: usize,
    unit: Vec<T>,
    out: &mut Vec<Vec<T>>,
    rec: &mut Recorder,
    cycle: u64,
) -> bool {
    let mut current = unit;
    for (s, t) in stages[from..].iter_mut().zip(&mut tr[from..]) {
        match s.push(current) {
            Some(u) => {
                if !t.primed {
                    t.primed = true;
                    rec.instant(t.track, "primed", cycle);
                }
                current = u;
            }
            None => {
                rec.gauge(t.track, "window_fill", cycle, s.window_fill() as f64);
                return false;
            }
        }
    }
    out.push(current);
    true
}

/// Stream `units` through `stages` (the unrolled pipeline of Fig. 2) and
/// collect the `stream_units` output units — the one chain runner.
///
/// Telemetry: per-stage fill gauges while each window primes, a "primed"
/// instant when a stage first emits, a "drain" instant when its trailing
/// units flush, and `window.{rows,planes}_streamed` /
/// `window.drain_{rows,planes}` counters, stamped per [`Stamps`]. With a
/// disabled recorder every hook is a single predictable branch.
///
/// With `faults`, the injector is consulted per input unit (bit flip, then
/// stream fault) and a per-run [`Watchdog`] observes forward progress. A
/// trip — no progress within the budget, a starved input stream, or a
/// short stream at the end — stops the run early and is left in `faults`;
/// the units emitted so far are returned.
///
/// # Panics
/// Without `faults`, panics unless the chain emits exactly `stream_units`
/// units.
pub fn run_chain<T: Element, S: Stage<T>>(
    mut stages: Vec<S>,
    stream_units: usize,
    units: impl Iterator<Item = Vec<T>>,
    rec: &mut Recorder,
    at: Stamps<'_>,
    faults: Option<&mut ChainFaults<'_>>,
) -> Vec<Vec<T>> {
    let mut tr: Vec<StageTrace> = (0..stages.len())
        .map(|i| StageTrace {
            track: if rec.is_enabled() {
                rec.track(&format!("{}stage:{i}", at.prefix))
            } else {
                TrackId(0)
            },
            primed: false,
        })
        .collect();
    let mut guard = faults.map(|f| {
        let dog = Watchdog::new(f.budget, stream_units as u64);
        (f, dog)
    });
    let streaming = format!("streaming input {}", S::UNITS);
    let mut out = Vec::with_capacity(stream_units);
    let (mut j, mut fed) = (0u64, 0usize);
    for mut unit in units {
        let cycle = at.base_cycle + j * at.unit_cycles;
        let copies = guard.as_mut().map_or(1, |(f, _)| f.inject(&mut unit, j as usize));
        j += 1;
        for c in 0..copies {
            if guard.is_some() && fed == stream_units {
                // Input FIFO already holds the whole stream: the surplus
                // element is discarded at the full queue.
                break;
            }
            let u = if c + 1 < copies { unit.clone() } else { std::mem::take(&mut unit) };
            let emitted = feed(&mut stages, &mut tr, 0, u, &mut out, rec, cycle);
            fed += 1;
            if let (true, Some((_, dog))) = (emitted, guard.as_mut()) {
                dog.observe(cycle, 1);
            }
        }
        if let Some((f, dog)) = guard.as_mut() {
            if let Err(t) = dog.check(cycle, &streaming) {
                f.trip = Some(t);
                return out;
            }
        }
    }
    rec.counter_add(&format!("window.{}_streamed", S::UNITS), j);
    let end_cycle = at.base_cycle + j * at.unit_cycles;
    if let Some((f, dog)) = guard.as_mut() {
        if fed < stream_units {
            // The stages wait forever for the missing units — a starvation
            // deadlock on real hardware; report it via the watchdog.
            let detail = format!(
                "input stream starved: {fed}/{stream_units} {} reached the pipeline",
                S::UNITS
            );
            f.trip = dog.finish(end_cycle, &detail).err();
            return out;
        }
    }
    // Flush stage by stage, cascading trailing units downstream.
    let drained = format!("window.drain_{}", S::UNITS);
    for i in 0..stages.len() {
        let trailing = stages[i].finish();
        rec.counter_add(&drained, trailing.len() as u64);
        rec.instant(tr[i].track, "drain", end_cycle);
        for u in trailing {
            let emitted = feed(&mut stages, &mut tr, i + 1, u, &mut out, rec, end_cycle);
            if let (true, Some((_, dog))) = (emitted, guard.as_mut()) {
                dog.observe(end_cycle, 1);
            }
        }
    }
    if let Some((f, dog)) = guard.as_mut() {
        if let Err(t) = dog.finish(end_cycle, "chain drained") {
            f.trip = Some(t);
            return out;
        }
    }
    assert_eq!(out.len(), stream_units, "chain must emit the full stream");
    out
}

/// Iterations per pipeline pass: `niter` split into passes of at most the
/// design's unroll depth `p`; only the last pass may be shorter.
pub fn pass_sizes(design: &StencilDesign, niter: usize) -> Vec<usize> {
    let mut passes = Vec::new();
    let mut remaining = niter;
    while remaining > 0 {
        let p_eff = design.p.min(remaining);
        passes.push(p_eff);
        remaining -= p_eff;
    }
    passes
}

/// The kernels of one pass's chain: `stages_per_iter` repeated `p_eff`
/// times (the fused pipeline unrolled `p_eff` deep).
pub fn pass_chain<K>(stages_per_iter: &[K], p_eff: usize) -> impl Iterator<Item = &K> {
    stages_per_iter.iter().cycle().take(p_eff * stages_per_iter.len())
}

/// The one pass loop: stream the flat state `input` (`unit_len` cells per
/// unit) through one chain of `make_stage` stages per entry of `passes`,
/// each pass starting from the previous pass's output, and return the
/// final state. The input is copied into units once and the final units
/// are joined once: between passes the units move on by value. The first
/// pass records into `rec` at `at`; later passes stream untraced, since
/// the schedule repeats identically every pass. With `faults`, a watchdog
/// trip stops the loop and stays in `faults`, and the returned state is
/// incomplete (see [`ChainFaults::result`]).
#[allow(clippy::too_many_arguments)]
pub fn run_passes<T: Element, K, S: Stage<T>>(
    input: &[T],
    unit_len: usize,
    passes: &[usize],
    stages_per_iter: &[K],
    make_stage: impl Fn(&K) -> S,
    rec: &mut Recorder,
    at: Stamps<'_>,
    mut faults: Option<&mut ChainFaults<'_>>,
) -> Vec<T> {
    let stream_units = input.len() / unit_len;
    let mut units: Vec<Vec<T>> = input.chunks(unit_len).map(<[T]>::to_vec).collect();
    let mut off = Recorder::disabled();
    for (n, &p_eff) in passes.iter().enumerate() {
        let chain = pass_chain(stages_per_iter, p_eff).map(&make_stage).collect();
        let pass_rec = if n == 0 { &mut *rec } else { &mut off };
        let feed = units.into_iter();
        units = run_chain(chain, stream_units, feed, pass_rec, at, faults.as_deref_mut());
        if faults.as_ref().is_some_and(|f| f.trip.is_some()) {
            break;
        }
    }
    units.concat()
}

/// Stream a row iterator through a chain of scalar 2D stages, untraced.
pub fn run_chain_2d<T: Element, K: StencilOp2D<T> + Clone>(
    chain: &[K],
    nx: usize,
    stream_rows: usize,
    mesh_ny: usize,
    rows: impl Iterator<Item = Vec<T>>,
) -> Vec<Vec<T>> {
    let stages =
        chain.iter().map(|k| StageProcessor2D::new(k.clone(), nx, stream_rows, mesh_ny)).collect();
    run_chain(stages, stream_rows, rows, &mut Recorder::disabled(), Stamps::default(), None)
}

/// Stream a plane iterator through a chain of scalar 3D stages, untraced.
pub fn run_chain_3d<T: Element, K: StencilOp3D<T> + Clone>(
    chain: &[K],
    nx: usize,
    ny: usize,
    stream_planes: usize,
    mesh_nz: usize,
    planes: impl Iterator<Item = Vec<T>>,
) -> Vec<Vec<T>> {
    let stages = chain
        .iter()
        .map(|k| StageProcessor3D::new(k.clone(), nx, ny, stream_planes, mesh_nz))
        .collect();
    run_chain(stages, stream_planes, planes, &mut Recorder::disabled(), Stamps::default(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_faults::{FaultKind, FaultPlan};
    use sf_kernels::{reference, Jacobi3D, Poisson2D};
    use sf_mesh::{norms, Batch2D, Mesh2D, Mesh3D};
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json};

    /// Whole-mesh scalar 2D stages for `chain` over `ny` rows of `nx`.
    fn scalar_2d<K: StencilOp2D<f32> + Clone>(
        chain: &[K],
        nx: usize,
        ny: usize,
    ) -> Vec<StageProcessor2D<f32, K>> {
        chain.iter().map(|k| StageProcessor2D::new(k.clone(), nx, ny, ny)).collect()
    }

    /// Whole-mesh scalar 3D stages for `chain` over `nz` planes.
    fn scalar_3d<K: StencilOp3D<f32> + Clone>(
        chain: &[K],
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Vec<StageProcessor3D<f32, K>> {
        chain.iter().map(|k| StageProcessor3D::new(k.clone(), nx, ny, nz, nz)).collect()
    }

    /// Run `stages` over `units` with an enabled recorder, with or without
    /// fault hooks around `inj`; returns the units, the trace exports and
    /// the fault outcome.
    #[allow(clippy::type_complexity)]
    fn hooked_run<S: Stage<f32>>(
        stages: Vec<S>,
        units: Vec<Vec<f32>>,
        inj: Option<&mut FaultInjector>,
    ) -> (Vec<Vec<f32>>, String, String, Result<(), ExecError>) {
        let mut rec = Recorder::enabled(300.0);
        let n = units.len();
        let at = Stamps { prefix: "w/", base_cycle: 5, unit_cycles: 7 };
        let (out, outcome) = match inj {
            Some(inj) => {
                let mut faults = ChainFaults::new(inj, 1_000);
                let out = run_chain(stages, n, units.into_iter(), &mut rec, at, Some(&mut faults));
                (out, faults.result(()))
            }
            None => (run_chain(stages, n, units.into_iter(), &mut rec, at, None), Ok(())),
        };
        (out, to_chrome_json(&rec), to_metrics_json(&rec), outcome)
    }

    #[test]
    fn disabled_fault_hooks_change_nothing_2d() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let rows: Vec<Vec<f32>> = m.as_slice().chunks(21).map(<[f32]>::to_vec).collect();
        let chain = vec![Poisson2D; 3];
        let plain = hooked_run(scalar_2d(&chain, 21, 13), rows.clone(), None);
        let mut inj = FaultInjector::disabled();
        let hooked = hooked_run(scalar_2d(&chain, 21, 13), rows, Some(&mut inj));
        assert_eq!(hooked, plain, "disabled fault hooks must not change units or traces");
        assert!(plain.2.contains("window.rows_streamed"));
    }

    #[test]
    fn disabled_fault_hooks_change_nothing_3d() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let planes: Vec<Vec<f32>> = m.as_slice().chunks(72).map(<[f32]>::to_vec).collect();
        let chain = vec![Jacobi3D::smoothing(); 2];
        let plain = hooked_run(scalar_3d(&chain, 9, 8, 7), planes.clone(), None);
        let mut inj = FaultInjector::disabled();
        let hooked = hooked_run(scalar_3d(&chain, 9, 8, 7), planes, Some(&mut inj));
        assert_eq!(hooked, plain, "disabled fault hooks must not change units or traces");
        assert!(plain.2.contains("window.planes_streamed"));
    }

    #[test]
    fn fifo_drop_deadlock_names_rows() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let rows: Vec<Vec<f32>> = m.as_slice().chunks(21).map(<[f32]>::to_vec).collect();
        let mut inj = FaultInjector::new(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000));
        let (_, _, _, outcome) =
            hooked_run(scalar_2d(&[Poisson2D; 2], 21, 13), rows, Some(&mut inj));
        match outcome {
            Err(ExecError::Deadlock(trip)) => {
                assert!(trip.detail.contains("rows"), "{trip}");
                assert!(trip.units_emitted < trip.units_expected);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fifo_drop_deadlock_names_planes() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let planes: Vec<Vec<f32>> = m.as_slice().chunks(72).map(<[f32]>::to_vec).collect();
        let mut inj = FaultInjector::new(FaultPlan::single(13, FaultKind::FifoDrop, 1_000_000));
        let (_, _, _, outcome) =
            hooked_run(scalar_3d(&[Jacobi3D::smoothing()], 9, 8, 7), planes, Some(&mut inj));
        match outcome {
            Err(ExecError::Deadlock(trip)) => assert!(trip.detail.contains("planes"), "{trip}"),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn ring_buffer_eviction_and_access() {
        let mut r = RingBuffer::<f32>::new(3);
        for i in 0..5 {
            // Once full, each push hands back the unit it evicts.
            let evicted = r.push(vec![i as f32]);
            assert_eq!(evicted, (i >= 3).then(|| vec![(i - 3) as f32]));
        }
        assert_eq!(r.pushed(), 5);
        assert_eq!(r.get(2), &[2.0]);
        assert_eq!(r.get(4), &[4.0]);
        assert_eq!(r.window(2, 3), &[vec![2.0], vec![3.0], vec![4.0]]);
        assert_eq!(r.window(3, 1), &[vec![3.0]]);
    }

    #[test]
    fn single_stage_equals_reference_step() {
        let m = Mesh2D::<f32>::random(17, 9, 3, -1.0, 1.0);
        let rows =
            run_chain_2d(&[Poisson2D], 17, 9, 9, m.as_slice().chunks(17).map(|r| r.to_vec()));
        let expect = reference::step_2d(&Poisson2D, &m);
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn chained_stages_equal_iterated_reference() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let chain = vec![Poisson2D; 5];
        let rows = run_chain_2d(&chain, 21, 13, 13, m.as_slice().chunks(21).map(|r| r.to_vec()));
        let expect = reference::run_2d(&Poisson2D, &m, 5);
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn batched_stream_respects_seams() {
        // 3 stacked meshes must come out exactly as 3 independent solves
        let batch = Batch2D::<f32>::random(11, 7, 3, 9, -1.0, 1.0);
        let chain = vec![Poisson2D; 4];
        let rows = run_chain_2d(
            &chain,
            11,
            21,
            7, // seam period = per-mesh rows
            batch.as_slice().chunks(11).map(|r| r.to_vec()),
        );
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 4);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn chain_3d_equals_reference() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let k = Jacobi3D::smoothing();
        let chain = vec![k; 3];
        let planes = run_chain_3d(&chain, 9, 8, 7, 7, m.as_slice().chunks(72).map(|p| p.to_vec()));
        let got: Vec<f32> = planes.into_iter().flatten().collect();
        let expect = reference::run_3d(&k, &m, 3);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn traced_chain_matches_untraced_and_records_events() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let chain = vec![Poisson2D; 3];
        let plain = run_chain_2d(&chain, 21, 13, 13, m.as_slice().chunks(21).map(|r| r.to_vec()));

        let mut rec = Recorder::enabled(300.0);
        let traced = run_chain(
            scalar_2d(&chain, 21, 13),
            13,
            m.as_slice().chunks(21).map(|r| r.to_vec()),
            &mut rec,
            Stamps { prefix: "p0/", base_cycle: 100, unit_cycles: 28 },
            None,
        );
        assert_eq!(plain, traced, "telemetry must not change results");

        // One track per stage, each primed exactly once and drained once.
        assert_eq!(rec.track_names(), &["p0/stage:0", "p0/stage:1", "p0/stage:2"]);
        let primed: Vec<_> = rec.instants().iter().filter(|i| i.name == "primed").collect();
        assert_eq!(primed.len(), 3);
        // Stage s first emits on input row s·r + r (radius 1) → cycle stamps
        // follow base + j·cpr and grow down the chain.
        assert_eq!(primed[0].cycle, 100 + 28);
        assert!(primed[1].cycle > primed[0].cycle);
        assert_eq!(rec.instants().iter().filter(|i| i.name == "drain").count(), 3);
        // Fill gauges only while windows prime: r rows per stage.
        assert_eq!(rec.gauges().iter().filter(|g| g.name == "window_fill").count(), 3);
        assert_eq!(rec.counter("window.rows_streamed"), 13);
        assert_eq!(rec.counter("window.drain_rows"), 3);
    }

    #[test]
    fn traced_chain_3d_matches_untraced() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let k = Jacobi3D::smoothing();
        let chain = vec![k; 2];
        let plain = run_chain_3d(&chain, 9, 8, 7, 7, m.as_slice().chunks(72).map(|p| p.to_vec()));
        let mut rec = Recorder::enabled(300.0);
        let traced = run_chain(
            scalar_3d(&chain, 9, 8, 7),
            7,
            m.as_slice().chunks(72).map(|p| p.to_vec()),
            &mut rec,
            Stamps { prefix: "", base_cycle: 0, unit_cycles: 10 },
            None,
        );
        assert_eq!(plain, traced);
        assert_eq!(rec.counter("window.planes_streamed"), 7);
        assert_eq!(rec.instants().iter().filter(|i| i.name == "primed").count(), 2);
    }

    #[test]
    fn tiny_mesh_all_boundary() {
        // 2×2 mesh with radius-1 stencil: everything is boundary
        let m = Mesh2D::<f32>::random(2, 2, 1, 0.0, 1.0);
        let rows = run_chain_2d(&[Poisson2D], 2, 2, 2, m.as_slice().chunks(2).map(|r| r.to_vec()));
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert!(norms::bit_equal(&got, m.as_slice()));
    }

    #[test]
    #[should_panic(expected = "stream must be whole meshes")]
    fn seam_period_must_divide_stream() {
        let _ = StageProcessor2D::new(Poisson2D, 4, 10, 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut p = StageProcessor2D::new(Poisson2D, 4, 4, 4);
        let _ = p.push_row(vec![0.0; 5]);
    }
}
