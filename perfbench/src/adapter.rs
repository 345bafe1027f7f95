//! The one module that calls into the measured crates.
//!
//! Every call the benchmark makes into the program goes through here, so a
//! change to the program's public surface (the executor consolidation in
//! particular) changes this file and nothing else in the benchmark. The
//! rest of the benchmark sees plain numbers and the opaque [`Prepared`] /
//! [`Streamed`] values it hands back.

use crate::trace::Tracer;
use crate::workloads::{self, App, Query, Rollback, Stream};
use sf_core::Workflow;
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::fifo::{interstage_depth, Fifo};
use sf_fpga::recovery::derive_mesh_plan;
use sf_fpga::window::{StageProcessor2D, StageProcessor3D};
use sf_fpga::{
    cycles, fast, ExecEngine, FaultInjector, FaultKind, FaultPlan, Recorder, RecoveryConfig,
    RecoveryPolicy, RecoveryStats, RetryPolicy, SimReport,
};
use sf_kernels::rtm::{self, RtmPacked};
use sf_kernels::{
    reference, Jacobi3D, LaneElement, LaneOp3D, Poisson2D, RtmParams, RtmStage, RtmState,
    StencilSpec,
};
use sf_mesh::{norms, Batch2D, Batch3D, Element, Mesh3D};
use sf_multi::{LinkModel, MultiConfig};
use sf_recover::{AbftSignature, Snapshot};
use std::hint::black_box;
use std::time::Instant;

/// The engine every measured stream runs on.
const ENGINE: ExecEngine = ExecEngine::Fast;

/// The platform every run targets: the paper's U280 vs V100 setup.
pub fn workflow() -> Workflow {
    Workflow::u280_vs_v100()
}

fn spec(app: App) -> StencilSpec {
    match app {
        App::Poisson => StencilSpec::poisson(),
        App::Jacobi => StencilSpec::jacobi(),
        App::Rtm => StencilSpec::rtm(),
    }
}

fn workload(app: App, dims: [usize; 3], batch: usize) -> Workload {
    match app {
        App::Poisson => Workload::D2 { nx: dims[0], ny: dims[1], batch },
        App::Jacobi | App::Rtm => Workload::D3 { nx: dims[0], ny: dims[1], nz: dims[2], batch },
    }
}

/// Git commit of the measured tree, if it can be found.
pub fn git_sha() -> String {
    sf_report::detect_git_sha().unwrap_or_else(|| "unknown".to_string())
}

/// The winning design: the head of the ranked sweep, with the worker
/// count passed explicitly (this is what `Workflow::best_design` returns,
/// without its worker count coming from the environment).
fn best_design(
    wf: &Workflow,
    spec: &StencilSpec,
    wl: &Workload,
    iters: u64,
    jobs: usize,
) -> Result<StencilDesign, String> {
    let cands = wf.explore_jobs(spec, wl, iters, jobs).map_err(|e| e.to_string())?;
    cands
        .into_iter()
        .next()
        .map(|c| c.design)
        .ok_or_else(|| format!("no feasible design for {wl:?}"))
}

/// Input meshes of a stream.
#[derive(Clone)]
enum Input {
    D2(Batch2D<f32>),
    D3(Batch3D<f32>),
    Rtm { packed: Batch3D<RtmPacked>, y: Mesh3D<RtmState>, rho: Mesh3D<f32>, mu: Mesh3D<f32> },
}

impl Input {
    fn bytes(&self) -> usize {
        match self {
            Input::D2(b) => b.size_bytes(),
            Input::D3(b) => b.size_bytes(),
            Input::Rtm { packed, .. } => packed.size_bytes(),
        }
    }
}

fn make_input(s: &Stream, seed: u64) -> Input {
    let [nx, ny, nz] = s.dims;
    match s.app {
        App::Poisson => {
            Input::D2(Batch2D::random(nx, ny, s.batch, workloads::mesh_seed(seed), -1.0, 1.0))
        }
        App::Jacobi => {
            Input::D3(Batch3D::random(nx, ny, nz, s.batch, workloads::mesh_seed(seed), -1.0, 1.0))
        }
        App::Rtm => {
            let p = workloads::rtm_input(seed);
            let c = [p.center[0] * nx as f32, p.center[1] * ny as f32, p.center[2] * nz as f32];
            let y = Mesh3D::from_fn(nx, ny, nz, |x, yy, z| {
                let r2 = (x as f32 - c[0]).powi(2)
                    + (yy as f32 - c[1]).powi(2)
                    + (z as f32 - c[2]).powi(2);
                let pulse = p.amp * (-r2 / (p.width * nx as f32)).exp();
                let mut st = RtmState::default();
                st.0[rtm::lane::P] = pulse;
                st.0[rtm::lane::Q] = 0.5 * pulse;
                st
            });
            let rho =
                Mesh3D::from_fn(nx, ny, nz, |x, _, _| p.rho[0] + p.rho[1] * (x as f32 / nx as f32));
            let mu =
                Mesh3D::from_fn(nx, ny, nz, |_, yy, _| p.mu[0] + p.mu[1] * (yy as f32 / ny as f32));
            let packed = Batch3D::from_meshes(std::slice::from_ref(&rtm::pack(&y, &rho, &mu)));
            Input::Rtm { packed, y, rho, mu }
        }
    }
}

/// A stream's chosen, preflighted design.
pub struct Designed {
    stream: Stream,
    design: StencilDesign,
    wl: Workload,
    multi: MultiConfig,
}

/// The design query that opens a stream, what a fresh `sfstencil profile`
/// asks before anything runs: DSE, preflight, and on several cards the
/// sharded plan.
pub fn design(wf: &Workflow, s: &Stream, tr: &mut Tracer) -> Result<Designed, String> {
    let spec = spec(s.app);
    let wl = workload(s.app, s.dims, s.batch);
    let design =
        tr.span("core.best_design", |_| best_design(wf, &spec, &wl, s.iters as u64, s.jobs))?;
    let report = tr.span("core.preflight", |_| wf.preflight_devices(&design, &wl, s.devices));
    if report.has_errors() {
        return Err(report.render());
    }
    let multi = MultiConfig::new(s.devices);
    if s.devices > 1 {
        tr.span("multi.plan", |_| {
            sf_multi::sharded_plan(&wf.device, &design, &wl, s.iters as u64, &multi)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(Designed { stream: *s, design, wl, multi })
}

/// A stream after set-up: design chosen and preflighted, inputs generated.
#[derive(Clone)]
pub struct Prepared {
    stream: Stream,
    seed: u64,
    design: StencilDesign,
    wl: Workload,
    multi: MultiConfig,
    input: Input,
}

impl Prepared {
    /// Bytes of input the stream reads.
    pub fn input_bytes(&self) -> u64 {
        self.input.bytes() as u64
    }
}

/// Generate the stream's seeded inputs; completes its set-up.
pub fn inputs(d: Designed, seed: u64, tr: &mut Tracer) -> Prepared {
    let input = tr.span("mesh.input", |_| make_input(&d.stream, seed));
    Prepared { stream: d.stream, seed, design: d.design, wl: d.wl, multi: d.multi, input }
}

/// Stream output meshes.
enum Output {
    D2(Batch2D<f32>),
    D3(Batch3D<f32>),
    Rtm(Batch3D<RtmPacked>),
}

/// A finished stream: output, simulated report and the run's telemetry.
pub struct Streamed {
    out: Output,
    report: SimReport,
    recorder: Recorder,
    /// Recovery accounting (all zero outside the recoverable stream).
    stats: RecoveryStats,
    /// Iterations of each executor call (one per fault plan when
    /// recoverable).
    phase_iters: Vec<usize>,
}

impl Streamed {
    /// Pipeline passes of the run.
    pub fn passes(&self) -> u64 {
        self.report.passes
    }

    /// Events the recorder holds (spans, instants, gauges, counters).
    pub fn telemetry_events(&self) -> u64 {
        let r = &self.recorder;
        (r.spans().len() + r.instants().len() + r.gauges().len() + r.counters().len()) as u64
    }

    /// Exchange bytes the sharded run moved.
    pub fn exchange_bytes(&self) -> u64 {
        self.recorder.counter("exchange.bytes")
    }
}

/// The fault plans of a recoverable stream, one per fault kind.
fn fault_plans(seed: u64, rb: &Rollback) -> [FaultPlan; 2] {
    let [a, b] = workloads::fault_seeds(seed);
    let plan = |seed, kind| FaultPlan {
        seed,
        kind,
        rate_ppm: rb.rate_ppm,
        max_injections: rb.max_injections,
    };
    [plan(a, FaultKind::BitFlip), plan(b, FaultKind::FifoCorrupt)]
}

fn recovery_config(rb: &Rollback) -> RecoveryConfig {
    RecoveryConfig {
        policy: RecoveryPolicy::Rollback { max_retries: rb.max_retries },
        checkpoint_every: rb.checkpoint_every,
        ..RecoveryConfig::default()
    }
}

/// Split `iters` into one phase per fault plan.
fn phases(iters: usize) -> Vec<usize> {
    vec![iters / 2, iters - iters / 2]
}

/// The measured stream: the workload's iterations on the fast engine with
/// an enabled recorder, as `sfstencil profile` runs it.
pub fn run(wf: &Workflow, p: &Prepared, jobs: usize) -> Result<Streamed, String> {
    stream(wf, p, ENGINE, None, jobs, true)
}

/// Stream the prepared inputs through the engine-dispatched executors with
/// a recorder (enabled unless `telemetry` is false), `iters` iterations
/// (the workload's own count when `None`).
fn stream(
    wf: &Workflow,
    p: &Prepared,
    engine: ExecEngine,
    iters: Option<usize>,
    jobs: usize,
    telemetry: bool,
) -> Result<Streamed, String> {
    let dev = &wf.device;
    let ds = &p.design;
    let s = &p.stream;
    let niter = iters.unwrap_or(s.iters);
    let mut rec =
        if telemetry { Recorder::enabled(ds.freq_hz / 1e6) } else { Recorder::disabled() };
    rec.set_jobs(jobs as u64);
    let merr = |e: sf_multi::MultiError| e.to_string();
    let eerr = |e: sf_fpga::ExecError| e.to_string();
    let mut stats = RecoveryStats::default();
    let mut phase_iters = vec![niter];
    let (out, report) = match (&p.input, s.rollback) {
        (Input::D2(b), None) if s.devices > 1 => {
            let (o, r) = sf_multi::simulate_batch_2d_sharded_exec(
                engine,
                dev,
                ds,
                &[Poisson2D],
                b,
                niter,
                &p.multi,
                jobs,
                &mut rec,
            )
            .map_err(merr)?;
            (Output::D2(o), r)
        }
        (Input::D2(b), None) if s.batch > 1 => {
            let (o, r) = fast::simulate_batch_2d_parallel_exec(
                engine,
                dev,
                ds,
                &[Poisson2D],
                b,
                niter,
                jobs,
                &mut rec,
            );
            (Output::D2(o), r)
        }
        (Input::D2(b), None) => {
            let (o, r) = fast::simulate_2d_exec(engine, dev, ds, &[Poisson2D], b, niter, &mut rec);
            (Output::D2(o), r)
        }
        (Input::D3(b), None) if s.devices > 1 => {
            let k = Jacobi3D::smoothing();
            let (o, r) = sf_multi::simulate_batch_3d_sharded_exec(
                engine,
                dev,
                ds,
                &[k],
                b,
                niter,
                &p.multi,
                jobs,
                &mut rec,
            )
            .map_err(merr)?;
            (Output::D3(o), r)
        }
        (Input::D3(b), None) if s.batch > 1 => {
            let k = Jacobi3D::smoothing();
            let (o, r) = fast::simulate_batch_3d_parallel_exec(
                engine,
                dev,
                ds,
                &[k],
                b,
                niter,
                jobs,
                &mut rec,
            );
            (Output::D3(o), r)
        }
        (Input::D3(b), None) => {
            let k = Jacobi3D::smoothing();
            let (o, r) = fast::simulate_3d_exec(engine, dev, ds, &[k], b, niter, &mut rec);
            (Output::D3(o), r)
        }
        (Input::D3(b), Some(rb)) => {
            let k = Jacobi3D::smoothing();
            let rcfg = recovery_config(&rb);
            phase_iters = phases(niter);
            let mut cur = b.clone();
            let mut total = None::<SimReport>;
            for (plan, it) in fault_plans(p.seed, &rb).iter().zip(&phase_iters) {
                let (o, r, st) = fast::simulate_batch_3d_recoverable_exec(
                    engine,
                    dev,
                    ds,
                    &[k],
                    &cur,
                    *it,
                    plan,
                    &RetryPolicy::default(),
                    &rcfg,
                    jobs,
                    &mut rec,
                )
                .map_err(eerr)?;
                cur = o;
                stats.merge(&st);
                total = Some(match total {
                    None => r,
                    Some(mut t) => {
                        t.total_cycles += r.total_cycles;
                        t.passes += r.passes;
                        t
                    }
                });
            }
            (Output::D3(cur), total.ok_or("no phases")?)
        }
        (Input::Rtm { packed, .. }, None) => {
            let stages = RtmStage::pipeline(RtmParams::default());
            let (o, r) = if s.devices > 1 {
                sf_multi::simulate_batch_3d_sharded_exec(
                    engine, dev, ds, &stages, packed, niter, &p.multi, jobs, &mut rec,
                )
                .map_err(merr)?
            } else {
                fast::simulate_3d_exec(engine, dev, ds, &stages, packed, niter, &mut rec)
            };
            (Output::Rtm(o), r)
        }
        (Input::D2(_) | Input::Rtm { .. }, Some(_)) => {
            return Err("recoverable streams are defined for Jacobi only".into())
        }
    };
    Ok(Streamed { out, report, recorder: rec, stats, phase_iters })
}

/// Export the run's telemetry as `sfstencil profile` does (Chrome trace
/// and flat metrics); returns the bytes produced.
pub fn export(st: &Streamed) -> usize {
    sf_telemetry::chrome::to_chrome_json(&st.recorder).len()
        + sf_telemetry::metrics::to_metrics_json(&st.recorder).len()
}

/// FNV-1a over every output lane's bit pattern.
fn digest<T: Element>(cells: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in cells {
        for l in 0..T::LANES {
            for b in c.lane(l).to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Result of checking one stream.
pub struct Verdict {
    /// Simulated cycles the run reported.
    pub sim_cycles: u64,
    /// The cycles the chosen design's plan prescribes for it.
    pub plan_cycles: u64,
    /// Fault-free plan cycles (without recovery overhead).
    pub fault_free_cycles: u64,
    /// Real numerics were streamed through the window pipeline.
    pub behavioral: bool,
    /// Digest of the output meshes.
    pub digest: u64,
    /// Output equals the golden reference bit for bit (`None` when not
    /// computed).
    pub golden: Option<bool>,
}

/// Check a stream against its plan and, with `golden`, against the
/// golden reference. Runs outside every timed region.
pub fn verify(wf: &Workflow, p: &Prepared, st: &Streamed, golden: bool) -> Result<Verdict, String> {
    let s = &p.stream;
    let mut fault_free = 0;
    for &it in &st.phase_iters {
        fault_free += if s.devices > 1 {
            sf_multi::sharded_plan(&wf.device, &p.design, &p.wl, it as u64, &p.multi)
                .map_err(|e| e.to_string())?
                .merged
                .total_cycles
        } else {
            cycles::plan(&wf.device, &p.design, &p.wl, it as u64).total_cycles
        };
    }
    let plan_cycles = fault_free + st.stats.overhead_cycles();
    // The window pipeline counts the units it streams; the recoverable
    // executor instead counts the ABFT checks of its streamed segments.
    let streamed_units = st.recorder.counter("window.planes_streamed")
        + st.recorder.counter("window.rows_streamed")
        + st.recorder.counter("recover.abft_checks");
    let niter: usize = st.phase_iters.iter().sum();
    let (out_digest, golden) = match (&st.out, &p.input) {
        (Output::D2(o), Input::D2(i)) => (
            digest(o.as_slice()),
            golden.then(|| {
                norms::bit_equal(
                    o.as_slice(),
                    reference::run_batch_2d(&Poisson2D, i, niter).as_slice(),
                )
            }),
        ),
        (Output::D3(o), Input::D3(i)) => (
            digest(o.as_slice()),
            golden.then(|| {
                let want = reference::run_batch_3d(&Jacobi3D::smoothing(), i, niter);
                norms::bit_equal(o.as_slice(), want.as_slice())
            }),
        ),
        (Output::Rtm(o), Input::Rtm { y, rho, mu, .. }) => (
            digest(o.as_slice()),
            golden.then(|| {
                let want = reference::rtm_run(y, rho, mu, RtmParams::default(), niter);
                norms::bit_equal(rtm::unpack(&o.mesh(0)).as_slice(), want.as_slice())
            }),
        ),
        _ => return Err("output does not match the input kind".into()),
    };
    let input_digest = match &p.input {
        Input::D2(i) => digest(i.as_slice()),
        Input::D3(i) => digest(i.as_slice()),
        Input::Rtm { packed, .. } => digest(packed.as_slice()),
    };
    Ok(Verdict {
        sim_cycles: st.report.total_cycles,
        plan_cycles,
        fault_free_cycles: fault_free,
        behavioral: streamed_units > 0 && out_digest != input_digest,
        digest: out_digest,
        golden,
    })
}

/// One answer of the design sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Winning design and card count, rendered.
    pub design: String,
    /// Cards of the winning design.
    pub devices: usize,
    /// Predicted cycles of the winner.
    pub predicted_cycles: u64,
    /// Candidates the DSE ranked.
    pub candidates: usize,
    /// Design `compare` settled on, rendered.
    pub compared: String,
}

fn query_workflow(base: &Workflow, q: &Query) -> Workflow {
    let mut wf = base.clone();
    wf.opts.device_candidates = if q.devices > 1 { vec![1, q.devices] } else { vec![1] };
    wf.opts.link = if q.aurora { LinkModel::aurora() } else { LinkModel::pcie() };
    wf
}

/// Ask one design query: explore, preflight the winner, compare with the
/// GPU.
pub fn ask(base: &Workflow, q: &Query, jobs: usize, tr: &mut Tracer) -> Result<Answer, String> {
    let wf = query_workflow(base, q);
    let spec = spec(q.app);
    let wl = workload(q.app, q.dims, 1);
    let cands = tr
        .span("model.explore", |_| wf.explore_jobs(&spec, &wl, q.iters, jobs))
        .map_err(|e| e.to_string())?;
    let top = cands.first().ok_or_else(|| format!("no feasible design for {q:?}"))?;
    let report = tr.span("core.preflight", |_| wf.preflight_devices(&top.design, &wl, top.devices));
    if report.has_errors() {
        return Err(report.render());
    }
    let cmp =
        tr.span("core.compare", |_| wf.compare(&spec, &wl, q.iters)).map_err(|e| e.to_string())?;
    Ok(Answer {
        design: format!("{:?}", top.design),
        devices: top.devices,
        predicted_cycles: top.prediction.cycles,
        candidates: cands.len(),
        compared: format!("{:?}", cmp.design),
    })
}

/// The cycles the plan prescribes for a query's winner (the sharded plan
/// on several cards). Runs outside every timed region.
pub fn query_plan_cycles(base: &Workflow, q: &Query, jobs: usize) -> Result<u64, String> {
    let wf = query_workflow(base, q);
    let spec = spec(q.app);
    let wl = workload(q.app, q.dims, 1);
    let cands = wf.explore_jobs(&spec, &wl, q.iters, jobs).map_err(|e| e.to_string())?;
    let top = cands.first().ok_or("no feasible design")?;
    Ok(if top.devices > 1 {
        let cfg = MultiConfig { devices: top.devices, link: wf.opts.link };
        sf_multi::sharded_plan(&wf.device, &top.design, &wl, q.iters, &cfg)
            .map_err(|e| e.to_string())?
            .merged
            .total_cycles
    } else {
        cycles::plan(&wf.device, &top.design, &wl, q.iters).total_cycles
    })
}

/// Named per-layer measurements.
pub type Metrics = Vec<(&'static str, f64)>;

/// Median of `n` timings of `f`, in seconds.
fn time_median(n: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Mean seconds per call of `f` over at least `min_s` seconds.
fn time_mean(min_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u64;
    while n == 0 || t0.elapsed().as_secs_f64() < min_s {
        for _ in 0..64 {
            f();
        }
        n += 64;
    }
    t0.elapsed().as_secs_f64() / n as f64
}

/// Layer probes: drive each layer's public type directly on the
/// workload's own shapes, in a fresh process. Returns `(metric, value)`
/// pairs and the number of probe runs that ended wrong; the model probe
/// runs first so it sees cold caches.
pub fn probes(wf: &Workflow, w: &workloads::Workload, seed: u64) -> Result<(Metrics, u64), String> {
    let mut m = Vec::new();
    let s = workloads::probe_stream(w);
    let (spec_q, wl_q, iters_q, jobs_q) = match w.kind {
        workloads::Kind::Stream(s) => {
            (spec(s.app), workload(s.app, s.dims, s.batch), s.iters as u64, s.jobs)
        }
        workloads::Kind::Sweep { .. } => {
            let q = workloads::query_list(seed, 1)[0];
            (spec(q.app), workload(q.app, q.dims, 1), q.iters, 1)
        }
    };

    // sf-model: cold sweep, then the same sweep again.
    let t0 = Instant::now();
    let cands = wf.explore_jobs(&spec_q, &wl_q, iters_q, jobs_q).map_err(|e| e.to_string())?;
    let cold = t0.elapsed().as_secs_f64();
    let warm = time_median(5, || {
        black_box(wf.explore_jobs(&spec_q, &wl_q, iters_q, jobs_q).ok());
    });
    m.push(("model.explore_s", cold));
    m.push(("model.candidates", cands.len() as f64));
    m.push(("model.repeat_speedup", cold / warm));

    // sf-absint: the uncached kernel analysis behind the K-rules.
    let cfg = sf_absint::AbsintConfig::default();
    let analyze = time_median(3, || match s.app {
        App::Poisson => drop(black_box(sf_absint::analyze_2d(&Poisson2D, &cfg))),
        App::Jacobi => drop(black_box(sf_absint::analyze_3d(&Jacobi3D::smoothing(), &cfg))),
        App::Rtm => drop(black_box(sf_absint::rules::analyze_rtm(RtmParams::default(), &cfg))),
    });
    m.push(("absint.analyze_s", analyze));

    // sf-gpu: the comparator estimate.
    let gpu = time_mean(0.05, || {
        black_box(wf.gpu_estimate(&spec_q, &wl_q, iters_q));
    });
    m.push(("gpu.estimate_s", gpu));

    // Set-up, then one probe-sized stream of the workload's shape.
    let mut tr = Tracer::new(true);
    let p = inputs(design(wf, &s, &mut tr)?, seed, &mut tr);
    m.push(("mesh.input_s", tr.total_secs("mesh.input")));
    m.push(("mesh.input_bytes", p.input_bytes() as f64));
    let probe_iters = p.design.p.clamp(1, s.iters);
    let t0 = Instant::now();
    let st = stream(wf, &p, ENGINE, Some(probe_iters), s.jobs, true)?;
    let sim_s = t0.elapsed().as_secs_f64();
    m.push(("exec.sim_s", sim_s));
    m.push(("exec.passes", st.passes() as f64));
    let updates = s.cells() * s.batch as u64 * probe_iters as u64 * s.app.stages();
    m.push(("exec.ns_per_cell", sim_s * 1e9 / updates as f64));
    m.push(("telemetry.events", st.telemetry_events() as f64));
    let t0 = Instant::now();
    black_box(export(&st));
    m.push(("telemetry.export_s", t0.elapsed().as_secs_f64()));

    // Engines agree: same cycles, same output bits.
    let scalar = stream(wf, &p, ExecEngine::Scalar, Some(probe_iters), s.jobs, true)?;
    let (vf, vs) = (verify(wf, &p, &st, false)?, verify(wf, &p, &scalar, false)?);
    if vf.sim_cycles != vs.sim_cycles || vf.digest != vs.digest {
        return Err("fast and scalar engines disagree".into());
    }

    // sf-telemetry: the same call with an enabled and a disabled recorder.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (telemetry, v) in [(true, &mut on), (false, &mut off)] {
            let t0 = Instant::now();
            black_box(stream(wf, &p, ENGINE, Some(probe_iters), s.jobs, telemetry)?);
            v.push(t0.elapsed().as_secs_f64());
        }
    }
    m.push((
        "telemetry.overhead_pct",
        (crate::stats::median(&on) / crate::stats::median(&off) - 1.0) * 100.0,
    ));

    // sf-par: the batched call on one worker vs two.
    let mut by_jobs = [0.0; 2];
    for (j, t) in by_jobs.iter_mut().enumerate() {
        *t = time_median(3, || {
            black_box(stream(wf, &p, ENGINE, Some(probe_iters), j + 1, false).ok());
        });
    }
    m.push(("par.speedup", by_jobs[0] / by_jobs[1]));

    // sf-multi: planning, exchange volume and the cost of sharding on
    // the workload's cards (two when it runs on one, where legal).
    let k = s.devices.max(2);
    let mcfg = MultiConfig::new(k);
    let legal = !wf.preflight_devices(&p.design, &p.wl, k).has_errors();
    let plan = sf_multi::sharded_plan(&wf.device, &p.design, &p.wl, s.iters as u64, &mcfg);
    m.push((
        "multi.plan_s",
        time_mean(0.05, || {
            black_box(
                sf_multi::sharded_plan(&wf.device, &p.design, &p.wl, s.iters as u64, &mcfg).ok(),
            );
        }),
    ));
    match (legal, plan) {
        (true, Ok(plan)) if s.rollback.is_none() => {
            m.push((
                "multi.exchange_bytes",
                (plan.exchange_bytes_per_pass * plan.merged.passes) as f64,
            ));
            let sharded = Prepared { multi: mcfg, stream: Stream { devices: k, ..s }, ..p.clone() };
            let single = Prepared {
                multi: MultiConfig::new(1),
                stream: Stream { devices: 1, ..s },
                ..p.clone()
            };
            let ts = time_median(3, || {
                drop(black_box(stream(wf, &sharded, ENGINE, Some(probe_iters), s.jobs, false)))
            });
            let t1 = time_median(3, || {
                drop(black_box(stream(wf, &single, ENGINE, Some(probe_iters), s.jobs, false)))
            });
            m.push(("multi.shard_overhead_pct", (ts / t1 - 1.0) * 100.0));
        }
        _ => {
            // The recoverable executor does not shard, and some designs'
            // halos are deeper than two shards: nothing to measure.
            m.push(("multi.exchange_bytes", 0.0));
            m.push(("multi.shard_overhead_pct", 0.0));
        }
    }

    // Stage-level: kernel body, lane engine, scalar window, FIFO.
    let (kernel_ns, lanes_ns, window_ns) = stage_probes(&p);
    m.push(("kernels.ns_per_cell", kernel_ns));
    m.push(("lanes.ns_per_cell", lanes_ns));
    m.push(("window.ns_per_cell", window_ns));
    m.push(("window.fast_speedup", window_ns / lanes_ns));
    let depth = interstage_depth(wf.device.axi_burst_bytes, p.design.v, spec(s.app).elem_bytes);
    let mut fifo = Fifo::<u64>::new(depth);
    let per_round = time_mean(0.05, || {
        for i in 0..depth as u64 {
            let _ = fifo.try_push(black_box(i));
        }
        while let Some(v) = fifo.pop() {
            black_box(v);
        }
    });
    m.push(("fifo.ns_per_push", per_round * 1e9 / depth as f64));

    // sf-recover and sf-faults: checkpoint capture, ABFT signature, and a
    // recoverable probe stream under the workload's seeded fault plans.
    let (cells, unit) = p.input.first_mesh_cells();
    let capture = time_median(5, || match &p.input {
        Input::D2(b) => drop(black_box(Snapshot::capture(0, 0, &[], 1, b.as_slice()))),
        Input::D3(b) => drop(black_box(Snapshot::capture(0, 0, &[], 1, b.as_slice()))),
        Input::Rtm { packed, .. } => {
            drop(black_box(Snapshot::capture(0, 0, &[], 1, packed.as_slice())))
        }
    });
    let abft = time_median(5, || match &p.input {
        Input::D2(b) => drop(black_box(AbftSignature::compute(b.as_slice(), unit))),
        Input::D3(b) => drop(black_box(AbftSignature::compute(b.as_slice(), unit))),
        Input::Rtm { packed, .. } => {
            drop(black_box(AbftSignature::compute(packed.as_slice(), unit)))
        }
    });
    let total_cells = (cells * s.batch) as f64;
    m.push(("recover.capture_ns_per_cell", capture * 1e9 / total_cells));
    m.push(("recover.abft_ns_per_cell", abft * 1e9 / total_cells));
    let (rm, unrecovered) = recovery_probe(wf, &p);
    m.extend(rm);
    Ok((m, unrecovered))
}

impl Input {
    /// Cells of one mesh and the stream unit length (row or plane).
    fn first_mesh_cells(&self) -> (usize, usize) {
        match self {
            Input::D2(b) => (b.nx() * b.ny(), b.nx()),
            Input::D3(b) => (b.nx() * b.ny() * b.nz(), b.nx() * b.ny()),
            Input::Rtm { packed, .. } => {
                (packed.nx() * packed.ny() * packed.nz(), packed.nx() * packed.ny())
            }
        }
    }
}

/// Golden step, lane-engine stage and scalar-window stage on the first
/// mesh of the input, each in ns per cell-update of one stage.
fn stage_probes(p: &Prepared) -> (f64, f64, f64) {
    match &p.input {
        Input::D2(b) => {
            let m = b.mesh(0);
            let (nx, ny) = (m.nx(), m.ny());
            let cells = (nx * ny) as f64;
            let kernel = time_median(5, || drop(black_box(reference::step_2d(&Poisson2D, &m))));
            let rows: Vec<Vec<f32>> = m.as_slice().chunks(nx).map(<[f32]>::to_vec).collect();
            let lanes = time_median(5, || {
                let mut sp = fast::FastStageProcessor2D::new(Poisson2D, nx, ny, ny);
                for r in &rows {
                    black_box(sp.push_row(r.clone()));
                }
                black_box(sp.finish());
            });
            let window = time_median(5, || {
                let mut sp = StageProcessor2D::new(Poisson2D, nx, ny, ny);
                for r in &rows {
                    black_box(sp.push_row(r.clone()));
                }
                black_box(sp.finish());
            });
            (kernel * 1e9 / cells, lanes * 1e9 / cells, window * 1e9 / cells)
        }
        Input::D3(b) => stage_probes_3d(&b.mesh(0), Jacobi3D::smoothing()),
        Input::Rtm { packed, .. } => {
            stage_probes_3d(&packed.mesh(0), RtmStage::new(1, RtmParams::default()))
        }
    }
}

fn stage_probes_3d<T, K>(m: &Mesh3D<T>, k: K) -> (f64, f64, f64)
where
    T: LaneElement,
    K: LaneOp3D<T> + Clone,
{
    let (nx, ny, nz) = (m.nx(), m.ny(), m.nz());
    let cells = (nx * ny * nz) as f64;
    let kernel = time_median(5, || drop(black_box(reference::step_3d(&k, m))));
    let planes: Vec<Vec<T>> = m.as_slice().chunks(nx * ny).map(<[T]>::to_vec).collect();
    let lanes = time_median(5, || {
        let mut sp = fast::FastStageProcessor3D::new(k.clone(), nx, ny, nz, nz);
        for pl in &planes {
            black_box(sp.push_plane(pl.clone()));
        }
        black_box(sp.finish());
    });
    let window = time_median(5, || {
        let mut sp = StageProcessor3D::new(k.clone(), nx, ny, nz, nz);
        for pl in &planes {
            black_box(sp.push_plane(pl.clone()));
        }
        black_box(sp.finish());
    });
    (kernel * 1e9 / cells, lanes * 1e9 / cells, window * 1e9 / cells)
}

/// Per-mesh recoverable streams of the probe input under the workload's
/// fault plans (the defaults of the rollback workload where it has none),
/// with injectors the probe owns so their counts can be read. Also returns
/// the number of runs that did not end bit-exact.
fn recovery_probe(wf: &Workflow, p: &Prepared) -> (Metrics, u64) {
    let rb = p.stream.rollback.unwrap_or(Rollback {
        checkpoint_every: 4,
        max_retries: 3,
        rate_ppm: 1_000_000,
        max_injections: 1,
    });
    let rcfg = recovery_config(&rb);

    let dev = &wf.device;
    let one_mesh_wl = match p.wl {
        Workload::D2 { nx, ny, .. } => Workload::D2 { nx, ny, batch: 1 },
        Workload::D3 { nx, ny, nz, .. } => Workload::D3 { nx, ny, nz, batch: 1 },
    };
    // The probe protects one mesh at a time, so it runs the design the
    // DSE picks for one mesh of the workload's shape.
    let single =
        best_design(wf, &spec(p.stream.app), &one_mesh_wl, p.stream.iters as u64, p.stream.jobs);
    let ds = match &single {
        Ok(d) => d,
        Err(_) => return (Vec::new(), 1),
    };
    // One checkpoint interval, then the rest of a second one.
    let iters = (ds.p * (rb.checkpoint_every + 1)).clamp(1, p.stream.iters);
    let mut stats = RecoveryStats::default();
    let (mut injected, mut opportunities, mut sim) = (0u64, 0u64, 0u64);
    let (mut runs, mut recovered) = (0usize, 0usize);
    let policy = RetryPolicy::default();
    for base in fault_plans(p.seed, &rb) {
        // The first mesh; the batch executor runs every mesh this way.
        for i in 0..1 {
            let mut inj = FaultInjector::new(derive_mesh_plan(&base, i));
            let mut rec = Recorder::disabled();
            let r = match &p.input {
                Input::D2(b) => {
                    let one = Batch2D::from_meshes(std::slice::from_ref(&b.mesh(i)));
                    fast::simulate_2d_recoverable_exec(
                        ENGINE,
                        dev,
                        ds,
                        &[Poisson2D],
                        &one,
                        iters,
                        &mut inj,
                        &policy,
                        &rcfg,
                        &mut rec,
                    )
                    .map(|(o, r, s)| {
                        (
                            norms::bit_equal(
                                o.as_slice(),
                                reference::run_batch_2d(&Poisson2D, &one, iters).as_slice(),
                            ),
                            r,
                            s,
                        )
                    })
                }
                Input::D3(b) => {
                    let k = Jacobi3D::smoothing();
                    let one = Batch3D::from_meshes(std::slice::from_ref(&b.mesh(i)));
                    fast::simulate_3d_recoverable_exec(
                        ENGINE,
                        dev,
                        ds,
                        &[k],
                        &one,
                        iters,
                        &mut inj,
                        &policy,
                        &rcfg,
                        &mut rec,
                    )
                    .map(|(o, r, s)| {
                        (
                            norms::bit_equal(
                                o.as_slice(),
                                reference::run_batch_3d(&k, &one, iters).as_slice(),
                            ),
                            r,
                            s,
                        )
                    })
                }
                Input::Rtm { packed, .. } => {
                    let stages = RtmStage::pipeline(RtmParams::default());
                    let one = Batch3D::from_meshes(std::slice::from_ref(&packed.mesh(i)));
                    fast::simulate_3d_recoverable_exec(
                        ENGINE, dev, ds, &stages, &one, iters, &mut inj, &policy, &rcfg, &mut rec,
                    )
                    .map(|(o, r, s)| {
                        let want = reference::run_stages_3d(&stages, &one.mesh(0), iters);
                        (norms::bit_equal(o.as_slice(), want.as_slice()), r, s)
                    })
                }
            };
            injected += inj.injected();
            opportunities += inj.opportunities();
            runs += 1;
            if let Ok((exact, rep, st)) = r {
                recovered += exact as usize;
                sim += rep.total_cycles;
                stats.merge(&st);
            }
        }
    }
    let fault_free = runs as u64 * cycles::plan(dev, ds, &one_mesh_wl, iters as u64).total_cycles;
    let metrics = vec![
        ("recover.rollbacks", stats.rollbacks as f64),
        ("recover.replayed_passes", stats.batches_replayed as f64),
        ("recover.recovered_ratio", recovered as f64 / runs as f64),
        ("recover.overhead_pct", (sim as f64 / fault_free as f64 - 1.0) * 100.0),
        ("faults.injected", injected as f64),
        ("faults.opportunities", opportunities as f64),
    ];
    (metrics, (runs - recovered) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_meshes() {
        for name in ["rtm-deep", "poisson-sharded-batch", "jacobi-rollback"] {
            let Some(workloads::Workload { kind: workloads::Kind::Stream(s), .. }) =
                workloads::by_name(name)
            else {
                panic!("{name} is a stream workload");
            };
            let d = |seed| {
                let input = make_input(&s, seed);
                match &input {
                    Input::D2(b) => digest(b.as_slice()),
                    Input::D3(b) => digest(b.as_slice()),
                    Input::Rtm { packed, .. } => digest(packed.as_slice()),
                }
            };
            assert_eq!(d(3), d(3), "{name}");
            assert_ne!(d(3), d(4), "{name}");
        }
    }

    #[test]
    fn every_pool_query_is_answerable() {
        let wf = workflow();
        let mut tr = Tracer::new(false);
        let bad: Vec<String> = workloads::query_pool()
            .iter()
            .filter_map(|q| ask(&wf, q, 1, &mut tr).err().map(|e| format!("{q:?}: {e}")))
            .collect();
        assert!(bad.is_empty(), "{bad:#?}");
    }
}
