//! Host-time benchmark of the stencil-FPGA workspace.
//!
//! ```text
//! sf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! One client in a closed loop: each operation runs in a fresh child
//! process (so every set-up is the cold path a new `sfstencil` invocation
//! pays), and the next starts only when the previous one has ended. The
//! parent gathers the children's measurements for `--seconds`, scales
//! their host times to a reference host speed (see [`calib`]), checks
//! every output, prints a human summary on stderr and, as the last line of
//! stdout, one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). It exits 1 if any output was
//! wrong and 2 on a usage error.

mod adapter;
mod calib;
mod stats;
mod trace;
mod workloads;

use calib::{Scales, Speed};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{Kind, Workload};

/// End-to-end metrics, name and unit, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_updates_per_s", "Mcells/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, name and unit, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.best_design_s", "s"),
    ("core.preflight_s", "s"),
    ("model.explore_s", "s"),
    ("model.candidates", "count"),
    ("model.repeat_speedup", "ratio"),
    ("absint.analyze_s", "s"),
    ("gpu.estimate_s", "s"),
    ("mesh.input_s", "s"),
    ("mesh.input_bytes", "bytes"),
    ("kernels.ns_per_cell", "ns"),
    ("lanes.ns_per_cell", "ns"),
    ("window.ns_per_cell", "ns"),
    ("window.fast_speedup", "ratio"),
    ("fifo.ns_per_push", "ns"),
    ("exec.sim_s", "s"),
    ("exec.passes", "count"),
    ("exec.ns_per_cell", "ns"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.events", "count"),
    ("telemetry.export_s", "s"),
    ("par.speedup", "ratio"),
    ("multi.plan_s", "s"),
    ("multi.exchange_bytes", "bytes"),
    ("multi.shard_overhead_pct", "%"),
    ("recover.capture_ns_per_cell", "ns"),
    ("recover.abft_ns_per_cell", "ns"),
    ("recover.rollbacks", "count"),
    ("recover.replayed_passes", "count"),
    ("recover.recovered_ratio", "ratio"),
    ("recover.overhead_pct", "%"),
    ("faults.injected", "count"),
    ("faults.opportunities", "count"),
    ("trace.overhead_pct", "%"),
];

/// Cold set-up samples taken after each full operation. A stream's set-up
/// asks its one design query, so these also give the query percentiles
/// their samples (p90 with ten beyond it in a run); the sweep asks its
/// queries in the full operations.
fn setups_per_op(w: &Workload) -> usize {
    match w.kind {
        Kind::Stream(_) => 10,
        Kind::Sweep { .. } => 4,
    }
}

/// Full operations every run measures, however long they take.
const MIN_FULL_OPS: usize = 3;

/// A seed no development run used: claims must also hold on it.
const HELD_OUT_SEED: u64 = 1_000_003;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("child") {
        child(&args[1..])
    } else {
        parent(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sf-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad value for {name}: {v}"))
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload {name} (one of {})", workloads::NAMES.join(", ")))
}

// ---------------------------------------------------------------------------
// Child side: one operation in a fresh process, reported as `key value`
// lines on stdout.
// ---------------------------------------------------------------------------

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn child(args: &[String]) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let w = workload_arg(args)?;
    let seed: u64 = parse(args, "--seed")?;
    let mode = flag(args, "--mode").ok_or("missing --mode")?;
    let traced = args.iter().any(|a| a == "--traced");
    let golden = args.iter().any(|a| a == "--golden");
    let mut out = Vec::<(String, String)>::new();
    let mut put = |k: &str, v: String| out.push((k.to_string(), v));
    let wf = adapter::workflow();
    let mut tr = Tracer::new(traced);
    let mut failed = 0u64;
    let mut attempted = 1u64;
    match (mode, w.kind) {
        ("probe", _) => {
            let (metrics, bad) = adapter::probes(&wf, &w, seed)?;
            for (k, v) in metrics {
                put(k, v.to_string());
            }
            failed += bad;
        }
        ("setup" | "full", Kind::Stream(s)) => {
            let tq = Instant::now();
            let designed = adapter::design(&wf, &s, &mut tr)?;
            put("query_ms", (tq.elapsed().as_secs_f64() * 1e3).to_string());
            let p = adapter::inputs(designed, seed, &mut tr);
            put("setup_s", t0.elapsed().as_secs_f64().to_string());
            if mode == "full" {
                let ts = Instant::now();
                let st = tr.span("exec.stream", |_| adapter::run(&wf, &p, s.jobs))?;
                let stream_s = ts.elapsed().as_secs_f64();
                tr.span("telemetry.export", |_| adapter::export(&st));
                put("wall_s", t0.elapsed().as_secs_f64().to_string());
                put("peak_rss_mb", peak_rss_mb().to_string());
                put("stream_s", stream_s.to_string());
                put("cell_updates", s.cell_updates().to_string());
                put("exec.passes", st.passes().to_string());
                put("telemetry.events", st.telemetry_events().to_string());
                put("mesh.input_bytes", p.input_bytes().to_string());
                put("exchange_bytes", st.exchange_bytes().to_string());
                let v = adapter::verify(&wf, &p, &st, golden)?;
                put("sim_cycles", v.sim_cycles.to_string());
                put("fault_free_cycles", v.fault_free_cycles.to_string());
                put("digest", v.digest.to_string());
                if v.sim_cycles != v.plan_cycles {
                    failed += 1;
                    put("error", format!("sim_cycles {} != plan {}", v.sim_cycles, v.plan_cycles));
                }
                if !v.behavioral {
                    failed += 1;
                    put("error", "stream was not behavioral".into());
                }
                if v.golden == Some(false) {
                    failed += 1;
                    put("error", "output differs from the golden reference".into());
                }
            }
        }
        ("setup" | "full", Kind::Sweep { queries }) => {
            let list = workloads::query_list(seed, queries);
            let jobs = w.jobs();
            let mut first = Vec::with_capacity(list.len());
            let mut ask_s = 0.0;
            for (i, q) in list.iter().enumerate() {
                let tq = Instant::now();
                let a = adapter::ask(&wf, q, jobs, &mut tr)?;
                let dt = tq.elapsed().as_secs_f64();
                ask_s += dt;
                put("query_ms", (dt * 1e3).to_string());
                first.push(a);
                if i == 0 {
                    put("setup_s", t0.elapsed().as_secs_f64().to_string());
                    if mode == "setup" {
                        break;
                    }
                }
            }
            if mode == "full" {
                attempted = 2 * list.len() as u64;
                for (q, a) in list.iter().zip(&first) {
                    let tq = Instant::now();
                    let again = adapter::ask(&wf, q, jobs, &mut tr)?;
                    let dt = tq.elapsed().as_secs_f64();
                    ask_s += dt;
                    put("repeat_ms", (dt * 1e3).to_string());
                    if &again != a {
                        failed += 1;
                        put("error", format!("repeat answer differs for {q:?}"));
                    }
                }
                put("wall_s", t0.elapsed().as_secs_f64().to_string());
                put("peak_rss_mb", peak_rss_mb().to_string());
                put("stream_s", ask_s.to_string());
                let updates: u64 = list
                    .iter()
                    .map(|q| (q.dims[0] * q.dims[1] * q.dims[2]) as u64 * q.iters * q.app.stages())
                    .sum();
                put("cell_updates", updates.to_string());
                let mut sim = 0u64;
                for (q, a) in list.iter().zip(&first) {
                    let plan = adapter::query_plan_cycles(&wf, q, jobs)?;
                    if plan != a.predicted_cycles || (a.devices == 1 && a.design != a.compared) {
                        failed += 1;
                        put("error", format!("query {q:?}: plan {plan} vs answer {a:?}"));
                    }
                    sim += plan;
                }
                put("sim_cycles", sim.to_string());
            }
        }
        _ => return Err(format!("unknown child mode {mode}")),
    }
    for s in tr.spans() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push((
            "span".into(),
            format!("{} {} {} {} {}", s.id, parent, s.name, s.start_ns, s.end_ns),
        ));
    }
    out.push(("attempted".into(), attempted.to_string()));
    out.push(("failed".into(), failed.to_string()));
    for (k, v) in out {
        println!("{k} {v}");
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Parent side: closed loop over child operations.
// ---------------------------------------------------------------------------

/// What one child reported.
#[derive(Default)]
struct Report {
    values: BTreeMap<String, Vec<String>>,
}

impl Report {
    fn all(&self, k: &str) -> Vec<f64> {
        self.values.get(k).map_or(Vec::new(), |v| v.iter().filter_map(|s| s.parse().ok()).collect())
    }

    fn one(&self, k: &str) -> Option<f64> {
        self.all(k).first().copied()
    }

    fn count(&self, k: &str) -> u64 {
        self.one(k).map_or(0, |v| v as u64)
    }

    fn strings(&self, k: &str) -> &[String] {
        self.values.get(k).map_or(&[], Vec::as_slice)
    }
}

/// Run one child operation and collect its report. A child that fails
/// to start or exits non-zero is a failed operation.
fn run_child(w: &Workload, seed: u64, mode: &str, extra: &[&str]) -> Report {
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["child", "--workload", w.name, "--seed", &seed.to_string(), "--mode", mode])
            .args(extra)
            // Library code that resolves a worker count itself sees the
            // workload's, never the caller's environment.
            .env("SF_JOBS", w.jobs().to_string())
            .output()
    });
    let mut r = Report::default();
    let error = match out {
        Ok(o) if o.status.success() => {
            for line in String::from_utf8_lossy(&o.stdout).lines() {
                if let Some((k, v)) = line.split_once(' ') {
                    r.values.entry(k.to_string()).or_default().push(v.to_string());
                }
            }
            return r;
        }
        Ok(o) => format!("child {mode} failed: {}", String::from_utf8_lossy(&o.stderr).trim()),
        Err(e) => format!("cannot start child: {e}"),
    };
    for (k, v) in [("error", error), ("attempted", "1".into()), ("failed", "1".into())] {
        r.values.insert(k.into(), vec![v]);
    }
    r
}

fn provenance(w: &Workload, seed: u64) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), w.name.into()),
        ("gated".into(), workloads::GATED.contains(&w.name).to_string()),
        ("seed".into(), seed.to_string()),
        ("held_out_seed".into(), HELD_OUT_SEED.to_string()),
        ("git_sha".into(), adapter::git_sha()),
        ("cpu".into(), cpu),
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), rustc),
        ("jobs".into(), w.jobs().to_string()),
    ]
}

/// Runs child operations between host-speed calibrations.
struct Runner<'a> {
    w: &'a Workload,
    seed: u64,
    /// The calibration taken after the previous group.
    last: Speed,
    /// Stream-time scales applied so far, for the summary.
    stream_scales: Vec<f64>,
}

impl<'a> Runner<'a> {
    fn new(w: &'a Workload, seed: u64) -> Runner<'a> {
        Runner { w, seed, last: Speed::measure(), stream_scales: Vec::new() }
    }

    /// Run `count` children back to back, then calibrate: returns their
    /// reports and the scales of that stretch of time.
    fn group(&mut self, mode: &str, extra: &[&str], count: usize) -> (Vec<Report>, Scales) {
        let reports = (0..count).map(|_| run_child(self.w, self.seed, mode, extra)).collect();
        let now = Speed::measure();
        let k = self.last.scales(&now);
        self.last = now;
        self.stream_scales.push(k.stream);
        (reports, k)
    }
}

/// The scale for an operation's main phase: a stream's for the streams,
/// a query's for the sweep.
fn main_scale(w: &Workload, k: &Scales) -> f64 {
    match w.kind {
        Kind::Stream(_) => k.stream,
        Kind::Sweep { .. } => k.query,
    }
}

/// Gathered outcome of a run.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, r: &Report) {
        self.attempted += r.count("attempted").max(1);
        self.failed += r.count("failed");
        self.errors.extend(r.strings("error").iter().cloned());
    }
}

fn parent(args: &[String]) -> Result<ExitCode, String> {
    let w = workload_arg(args)?;
    let seed: u64 = parse(args, "--seed")?;
    let seconds: f64 = parse(args, "--seconds")?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad value for --trace: {t}")),
    };
    let start = Instant::now();
    let prov = provenance(&w, seed);
    for (k, v) in &prov {
        eprintln!("{k:>14}: {v}");
    }
    let mut tally = Tally { attempted: 0, failed: 0, errors: Vec::new() };
    let elapsed = || start.elapsed().as_secs_f64();

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut runner = Runner::new(&w, seed);
    if !traced {
        // Full operations, each followed by a few cold set-ups, so set-up
        // and query samples span the run like the full operations do.
        let (mut full, mut setup) = (Vec::new(), Vec::new());
        while full.len() < MIN_FULL_OPS || elapsed() < seconds {
            let golden: &[&str] = if full.is_empty() { &["--golden"] } else { &[] };
            let (rs, k) = runner.group("full", golden, 1);
            full.extend(rs.into_iter().map(|r| (r, k)));
            let (rs, k) = runner.group("setup", &[], setups_per_op(&w));
            setup.extend(rs.into_iter().map(|r| (r, k)));
        }
        for (r, _) in full.iter().chain(&setup) {
            tally.add(r);
        }
        check_digests(full.iter().map(|(r, _)| r), &mut tally);
        // Host times at the reference speed, and as measured (`raw`, shown
        // on stderr only).
        let all = |ops: &[(Report, Scales)], key: &str, scale: fn(&Workload, &Scales) -> f64| {
            ops.iter()
                .flat_map(|(r, k)| r.all(key).into_iter().map(move |v| v * scale(&w, k)))
                .collect::<Vec<f64>>()
        };
        let query = |_: &Workload, k: &Scales| k.query;
        let raw = |_: &Workload, _: &Scales| 1.0;
        let mut setups = all(&full, "setup_s", query);
        setups.extend(all(&setup, "setup_s", query));
        let mut queries = all(&full, "query_ms", query);
        if matches!(w.kind, Kind::Stream(_)) {
            queries.extend(all(&setup, "query_ms", query));
        }
        let rate = |scale: fn(&Workload, &Scales) -> f64| -> Vec<f64> {
            full.iter()
                .filter_map(|(r, k)| {
                    Some(r.one("cell_updates")? / (r.one("stream_s")? * scale(&w, k)) / 1e6)
                })
                .collect()
        };
        let sims = all(&full, "sim_cycles", raw);
        eprintln!(
            "{:>24}: {} (median reference over measured memory-sweep time)",
            "host_speed",
            median(&runner.stream_scales)
        );
        for (k, v) in [
            (
                "raw setup_s",
                median(&[all(&full, "setup_s", raw), all(&setup, "setup_s", raw)].concat()),
            ),
            ("raw wall_s", median(&all(&full, "wall_s", raw))),
            ("raw cell_updates_per_s", median(&rate(raw))),
        ] {
            eprintln!("{k:>24}: {v}");
        }
        metrics = vec![
            ("setup_s", "s", median(&setups)),
            ("wall_s", "s", median(&all(&full, "wall_s", main_scale))),
            ("cell_updates_per_s", "Mcells/s", median(&rate(main_scale))),
            ("query_p50_ms", "ms", median(&queries)),
            ("query_p90_ms", "ms", quantile(&queries, 0.9)),
            ("sim_cycles", "cycles", median(&sims)),
            ("peak_rss_mb", "MB", median(&all(&full, "peak_rss_mb", raw))),
        ];
        // Shown, not in the JSON: the contract asks for metrics that are
        // never 0, and these are 0 (or undefined) on most workloads.
        let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        eprintln!(
            "{:>24}: {fail_frac} ratio ({} of {})",
            "fail_frac", tally.failed, tally.attempted
        );
        if let (Some(sim), Some(free)) =
            (sims.first(), all(&full, "fault_free_cycles", raw).first())
        {
            if matches!(w.kind, Kind::Stream(s) if s.rollback.is_some()) {
                eprintln!(
                    "{:>24}: {} % (sim)",
                    "recovery_overhead_pct",
                    (sim / free - 1.0) * 100.0
                );
            }
        }
        eprintln!(
            "{:>24}: {} full operations, {} query samples",
            "samples",
            full.len(),
            queries.len()
        );
    } else {
        let probe = run_child(&w, seed, "probe", &[]);
        tally.add(&probe);
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, _) in PER_LAYER {
            if let Some(v) = probe.one(k) {
                layer.insert(k, v);
            }
        }
        // Traced and untraced operations alternate; their walls at the
        // reference speed give the tracing overhead.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let (mut wall_on, mut wall_off) = (Vec::new(), Vec::new());
        while on.len() < 2 || off.len() < 2 || elapsed() < seconds {
            let golden: &[&str] =
                if on.is_empty() { &["--golden", "--traced"] } else { &["--traced"] };
            for (extra, ops, wall) in
                [(golden, &mut on, &mut wall_on), (&[][..], &mut off, &mut wall_off)]
            {
                let (rs, k) = runner.group("full", extra, 1);
                for r in rs {
                    tally.add(&r);
                    wall.extend(r.one("wall_s").map(|v| v * main_scale(&w, &k)));
                    ops.push(r);
                }
            }
        }
        check_digests(on.iter().chain(&off), &mut tally);
        layer.insert("trace.overhead_pct", (median(&wall_on) / median(&wall_off) - 1.0) * 100.0);
        let spans: Vec<Vec<SpanRow>> = on.iter().map(parse_spans).collect();
        let span_med = |name: &str, per_call: bool| -> Option<f64> {
            let v: Vec<f64> = spans
                .iter()
                .flat_map(|ss| {
                    let d: Vec<f64> = ss
                        .iter()
                        .filter(|s| s.2 == name)
                        .map(|s| (s.4 - s.3) as f64 * 1e-9)
                        .collect();
                    if per_call || d.is_empty() {
                        d
                    } else {
                        vec![d.iter().sum()]
                    }
                })
                .collect();
            (!v.is_empty()).then(|| median(&v))
        };
        match w.kind {
            Kind::Stream(s) => {
                for (metric, span) in [
                    ("core.best_design_s", "core.best_design"),
                    ("core.preflight_s", "core.preflight"),
                    ("mesh.input_s", "mesh.input"),
                    ("exec.sim_s", "exec.stream"),
                    ("telemetry.export_s", "telemetry.export"),
                    ("multi.plan_s", "multi.plan"),
                ] {
                    if let Some(v) = span_med(span, false) {
                        layer.insert(metric, v);
                    }
                }
                if let Some(r) = on.first() {
                    for k in ["exec.passes", "telemetry.events", "mesh.input_bytes"] {
                        if let Some(v) = r.one(k) {
                            layer.insert(k, v);
                        }
                    }
                    if s.devices > 1 {
                        if let Some(v) = r.one("exchange_bytes") {
                            layer.insert("multi.exchange_bytes", v);
                        }
                    }
                }
                if let Some(sim_s) = span_med("exec.stream", false) {
                    layer.insert("exec.ns_per_cell", sim_s * 1e9 / s.cell_updates() as f64);
                }
            }
            Kind::Sweep { .. } => {
                for (metric, span) in [
                    ("core.best_design_s", "model.explore"),
                    ("core.preflight_s", "core.preflight"),
                ] {
                    if let Some(v) = span_med(span, true) {
                        layer.insert(metric, v);
                    }
                }
            }
        }
        for (k, u) in PER_LAYER {
            metrics.push((k, u, layer.get(k).copied().unwrap_or(f64::NAN)));
        }
        if let Some(path) = flag(args, "--trace-out") {
            write_trace(path, &prov, &on)?;
        }
    }

    for e in &tally.errors {
        eprintln!("error: {e}");
    }
    for (k, u, v) in &metrics {
        eprintln!("{k:>28}: {v} {u}");
    }
    let missing: Vec<&str> = metrics.iter().filter(|m| !m.2.is_finite()).map(|m| m.0).collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, u, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Every full operation of a run streams the same seeded inputs, so every
/// output must match the one the first operation checked against the
/// golden reference.
fn check_digests<'a>(ops: impl Iterator<Item = &'a Report> + Clone, tally: &mut Tally) {
    let digests: Vec<&String> = ops.clone().filter_map(|r| r.strings("digest").first()).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        tally.failed += 1;
        tally.errors.push("output digests differ between operations".into());
    }
    let sims: Vec<&String> = ops.filter_map(|r| r.strings("sim_cycles").first()).collect();
    if sims.windows(2).any(|w| w[0] != w[1]) {
        tally.failed += 1;
        tally.errors.push("sim_cycles differ between operations".into());
    }
}

type SpanRow = (usize, Option<usize>, String, u64, u64);

fn parse_spans(r: &Report) -> Vec<SpanRow> {
    r.strings("span")
        .iter()
        .filter_map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            Some((
                f[0].parse().ok()?,
                f[1].parse().ok(),
                f[2].to_string(),
                f[3].parse().ok()?,
                f[4].parse().ok()?,
            ))
        })
        .collect()
}

/// Write the traced operations' spans, one run id per operation, with the
/// run's provenance.
fn write_trace(path: &str, prov: &[(String, String)], runs: &[Report]) -> Result<(), String> {
    let mut s = String::from("{\n  \"provenance\": {");
    let p: Vec<String> =
        prov.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'"))).collect();
    s.push_str(&p.join(", "));
    s.push_str("},\n  \"spans\": [");
    let mut rows = Vec::new();
    for (run, r) in runs.iter().enumerate() {
        for (id, parent, name, start, end) in parse_spans(r) {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            rows.push(format!(
                "\n    {{\"run\": {run}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}}}"
            ));
        }
    }
    s.push_str(&rows.join(","));
    s.push_str("\n  ]\n}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, s).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `BENCHMARK.json`'s `key` list.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn declared_workloads_are_the_ones_the_benchmark_runs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names, workloads::GATED);
        assert!(names.iter().all(|n| workloads::NAMES.contains(n)));
    }

    #[test]
    fn probe_metrics_cover_the_per_layer_list() {
        // Every per-layer metric comes from the probe, the traced run, or
        // the parent (trace overhead); the probe alone must not invent
        // names the list does not declare.
        let wf = adapter::workflow();
        let w = workloads::by_name("dse-sweep").unwrap();
        let (metrics, failed) = adapter::probes(&wf, &w, 5).unwrap();
        assert_eq!(failed, 0);
        for (name, _) in &metrics {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name} is not declared");
        }
    }
}
