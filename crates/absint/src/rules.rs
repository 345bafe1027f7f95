//! The kernel-analysis rules (`SFC-K01` … `SFC-K05`): turn one
//! [`KernelAnalysis`] plus the spec it is checked against into structured
//! [`Diagnostic`]s, and cache the analyses of the paper's three kernels so
//! preflight and the CLI pay the probe cost once per process.

use crate::footprint::{self, Footprint};
use crate::interval::Interval;
use crate::stability::{self, StabilityVerdict};
use sf_check::{Diagnostic, RuleId};
use sf_kernels::{
    AbstractOp2D, AbstractOp3D, AppId, Jacobi3D, Poisson2D, RtmParams, RtmStage, StencilSpec,
};
use std::sync::OnceLock;

/// Knobs for the kernel analyses.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AbsintConfig {
    /// Assumed per-cell input range for the interval analysis (the K03/K04
    /// rules are heuristic relative to this assumption; the default matches
    /// the normalized fields the paper's solvers iterate on).
    pub input_range: (f32, f32),
    /// Relative tolerance for the counted-vs-declared `G_dsp`/flops
    /// comparison (K02). The paper kernels match exactly; the band absorbs
    /// benign re-associations in user kernels.
    pub gdsp_tolerance: f64,
    /// Slack on `max|g| ≤ 1` before K05 fires (absorbs the f32 probe and
    /// frequency-grid sampling error).
    pub stability_tolerance: f64,
    /// Frequency samples per dimension for the von Neumann symbol sweep
    /// (even values include the Nyquist mode `θ = π`).
    pub freq_samples: usize,
}

impl Default for AbsintConfig {
    fn default() -> Self {
        AbsintConfig {
            input_range: (-1.0, 1.0),
            gdsp_tolerance: 0.02,
            stability_tolerance: 1e-4,
            freq_samples: 16,
        }
    }
}

/// Everything the three analyses extracted from one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelAnalysis {
    /// Probed access footprint + counted op tally.
    pub footprint: Footprint,
    /// Output range of one update over the assumed input range.
    pub range: Interval,
    /// Von Neumann stability verdict.
    pub stability: StabilityVerdict,
}

fn input_interval(cfg: &AbsintConfig) -> Interval {
    Interval::new(cfg.input_range.0 as f64, cfg.input_range.1 as f64)
}

/// Run all three analyses on a 2D kernel.
pub fn analyze_2d<K: AbstractOp2D + ?Sized>(op: &K, cfg: &AbsintConfig) -> KernelAnalysis {
    let footprint = footprint::extract_2d(op);
    let input = input_interval(cfg);
    let range = op.update::<Interval, _>(&|_, _| input);
    let stability =
        stability::analyze_2d(op, &footprint.offsets, cfg.freq_samples, cfg.stability_tolerance);
    KernelAnalysis { footprint, range, stability }
}

/// Run all three analyses on a 3D kernel.
pub fn analyze_3d<K: AbstractOp3D + ?Sized>(op: &K, cfg: &AbsintConfig) -> KernelAnalysis {
    let footprint = footprint::extract_3d(op);
    let input = input_interval(cfg);
    let range = op.update::<Interval, _>(&|_, _, _| input);
    let stability =
        stability::analyze_3d(op, &footprint.offsets, cfg.freq_samples, cfg.stability_tolerance);
    KernelAnalysis { footprint, range, stability }
}

/// Run the analyses on the fused RTM pipeline: footprint/tally union the
/// four stages, the range joins every output lane of every stage, and the
/// scalar von Neumann symbol does not apply to the packed multi-lane state.
pub fn analyze_rtm(params: RtmParams, cfg: &AbsintConfig) -> KernelAnalysis {
    let footprint = footprint::extract_rtm(params);
    let input = input_interval(cfg);
    let mut range = input;
    for s in 1..=4 {
        let stage = RtmStage::new(s, params);
        let out = stage.update_packed::<Interval, _>(&|_, _, _, _| input);
        for lane in out {
            range = range.hull(lane);
        }
    }
    KernelAnalysis {
        footprint,
        range,
        stability: StabilityVerdict::NotApplicable {
            reason: "multi-lane packed state (RTM fused RK4): the scalar von Neumann symbol \
                     does not apply"
                .into(),
        },
    }
}

fn diag(rule: RuleId, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: rule.default_severity(),
        location: "kernel".into(),
        message,
        hint: rule.fix_guidance().into(),
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Apply the K-rules: compare one kernel's extracted truth against the spec
/// it is deployed under, at unroll factor `p`.
pub fn kernel_diagnostics(
    analysis: &KernelAnalysis,
    spec: &StencilSpec,
    p: usize,
    cfg: &AbsintConfig,
) -> Vec<Diagnostic> {
    let mut ds = Vec::new();

    // K01 — probed footprint must fit inside the declared reach D/2.
    if analysis.footprint.radius > spec.radius() {
        ds.push(diag(
            RuleId::KernelFootprint,
            format!(
                "probed access footprint has radius {} ({} offsets) but the spec declares \
                 order D = {} (reach {}): window buffers sized from the spec evict cells \
                 the datapath still reads",
                analysis.footprint.radius,
                analysis.footprint.offsets.len(),
                spec.order,
                spec.radius()
            ),
        ));
    }

    // K02 — counted ops must match the spec's flops/G_dsp within tolerance.
    let counted_flops = analysis.footprint.tally.flops() as f64;
    let declared_flops = spec.flops_per_cell() as f64;
    let counted_gdsp = analysis.footprint.tally.gdsp(spec.format) as f64;
    let declared_gdsp = spec.gdsp() as f64;
    if rel_diff(counted_flops, declared_flops) > cfg.gdsp_tolerance
        || rel_diff(counted_gdsp, declared_gdsp) > cfg.gdsp_tolerance
    {
        ds.push(diag(
            RuleId::KernelOpCount,
            format!(
                "counted {} flops / G_dsp {} per cell, spec declares {} flops / G_dsp {}: \
                 every eq. (5)/(6) sizing decision uses drifted inputs",
                counted_flops, counted_gdsp, declared_flops, declared_gdsp
            ),
        ));
    }

    // K03/K04 — interval hazards over the assumed input range. A poisoned
    // division already explains the non-finite range, so K04 subsumes K03.
    if analysis.range.div_by_zero {
        ds.push(diag(
            RuleId::KernelDivByZero,
            format!(
                "a divisor's interval contains zero for inputs in [{}, {}]: \
                 division-by-zero (and its NaN) is statically reachable",
                cfg.input_range.0, cfg.input_range.1
            ),
        ));
    } else if !analysis.range.finite_in_f32() {
        ds.push(diag(
            RuleId::KernelNonFinite,
            format!(
                "one update on inputs in [{}, {}] reaches [{:.3e}, {:.3e}]{}: outside \
                 finite f32",
                cfg.input_range.0,
                cfg.input_range.1,
                analysis.range.lo,
                analysis.range.hi,
                if analysis.range.maybe_nan { " with NaN reachable" } else { "" }
            ),
        ));
    }

    // K05 — von Neumann instability of the iterative configuration.
    if let StabilityVerdict::Unstable { max_amplification, worst_freq } = &analysis.stability {
        let per_traversal = max_amplification.powi(p.min(1024) as i32);
        ds.push(diag(
            RuleId::KernelUnstable,
            format!(
                "von Neumann symbol reaches max|g(θ)| = {:.4} at θ = ({:.3}, {:.3}, {:.3}); \
                 with p = {} unrolled passes the worst mode grows {:.3e}× per mesh \
                 traversal — the iteration diverges before any result is usable",
                max_amplification, worst_freq[0], worst_freq[1], worst_freq[2], p, per_traversal
            ),
        ));
    }

    ds
}

/// The cached analysis of one of the paper's applications (`None` for
/// [`AppId::Custom`] — custom stencils are analyzed against their own op via
/// [`analyze_2d`]/[`analyze_3d`]). The probe cost is paid once per process,
/// like `sf_model::check_cached`.
pub fn analyze_app(app: AppId) -> Option<&'static KernelAnalysis> {
    static POISSON: OnceLock<KernelAnalysis> = OnceLock::new();
    static JACOBI: OnceLock<KernelAnalysis> = OnceLock::new();
    static RTM: OnceLock<KernelAnalysis> = OnceLock::new();
    let cfg = AbsintConfig::default();
    match app {
        AppId::Poisson2D => Some(POISSON.get_or_init(|| analyze_2d(&Poisson2D, &cfg))),
        AppId::Jacobi3D => Some(JACOBI.get_or_init(|| analyze_3d(&Jacobi3D::smoothing(), &cfg))),
        AppId::Rtm3D => Some(RTM.get_or_init(|| analyze_rtm(RtmParams::default(), &cfg))),
        AppId::Custom => None,
    }
}

/// Kernel diagnostics for a spec as deployed (the preflight / CLI entry
/// point): analyze the canonical kernel behind `spec.app` and apply the
/// K-rules against the spec *as given* — a drifted or overridden spec is
/// exactly what the rules exist to catch. Custom specs yield no diagnostics
/// here; analyze their op explicitly instead.
pub fn app_diagnostics(spec: &StencilSpec, p: usize) -> Vec<Diagnostic> {
    match analyze_app(spec.app) {
        Some(analysis) => kernel_diagnostics(analysis, spec, p, &AbsintConfig::default()),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_kernels::ops::OpCount;
    use sf_kernels::AbstractValue;

    #[test]
    fn paper_kernels_pass_all_k_rules_clean() {
        for app in AppId::ALL {
            let ds = app_diagnostics(&app.spec(), 8);
            assert!(ds.is_empty(), "{app:?} should be clean, got {ds:?}");
        }
    }

    #[test]
    fn custom_spec_yields_no_app_diagnostics() {
        let mut spec = StencilSpec::poisson();
        spec.app = AppId::Custom;
        assert!(app_diagnostics(&spec, 8).is_empty());
    }

    #[test]
    fn k01_fires_when_declared_reach_is_too_small() {
        // the kernel truly reads radius 1; claim order 0
        let mut spec = StencilSpec::poisson();
        spec.order = 0;
        let ds = app_diagnostics(&spec, 8);
        assert!(ds.iter().any(|d| d.rule == RuleId::KernelFootprint), "{ds:?}");
    }

    #[test]
    fn k02_fires_on_drifted_op_count() {
        let mut spec = StencilSpec::poisson();
        spec.ops = OpCount::new(10, 7, 0); // kernel counts 4 adds + 2 muls
        let ds = app_diagnostics(&spec, 8);
        assert!(ds.iter().any(|d| d.rule == RuleId::KernelOpCount), "{ds:?}");
    }

    #[test]
    fn k03_fires_on_overflowing_kernel() {
        struct Blowup;
        impl AbstractOp2D for Blowup {
            fn update<V: AbstractValue, F: Fn(i32, i32) -> V>(&self, at: &F) -> V {
                let big = V::constant(1e30) * at(0, 0);
                big * big // 1e60 — past f32::MAX
            }
        }
        let a = analyze_2d(&Blowup, &AbsintConfig::default());
        let mut spec = StencilSpec::poisson();
        spec.order = 0;
        spec.ops = OpCount::new(0, 3, 0);
        let ds = kernel_diagnostics(&a, &spec, 1, &AbsintConfig::default());
        assert!(ds.iter().any(|d| d.rule == RuleId::KernelNonFinite), "{ds:?}");
        assert!(!ds.iter().any(|d| d.rule == RuleId::KernelDivByZero));
    }

    #[test]
    fn k04_fires_on_reachable_division_by_zero() {
        struct DivCenter;
        impl AbstractOp2D for DivCenter {
            fn update<V: AbstractValue, F: Fn(i32, i32) -> V>(&self, at: &F) -> V {
                at(-1, 0) / at(0, 0) // input range [-1,1] contains 0
            }
        }
        let a = analyze_2d(&DivCenter, &AbsintConfig::default());
        let mut spec = StencilSpec::poisson();
        spec.ops = OpCount::new(0, 0, 1);
        let ds = kernel_diagnostics(&a, &spec, 1, &AbsintConfig::default());
        assert!(ds.iter().any(|d| d.rule == RuleId::KernelDivByZero), "{ds:?}");
        // K04 subsumes the non-finite warning the poisoned division implies
        assert!(!ds.iter().any(|d| d.rule == RuleId::KernelNonFinite), "{ds:?}");
    }

    #[test]
    fn k05_fires_on_unstable_coefficients_and_reports_p() {
        let k = Jacobi3D::with_coefficients([0.5; 7]);
        let a = analyze_3d(&k, &AbsintConfig::default());
        let spec = StencilSpec::jacobi();
        let ds = kernel_diagnostics(&a, &spec, 29, &AbsintConfig::default());
        let k05 = ds.iter().find(|d| d.rule == RuleId::KernelUnstable).expect("K05 fires");
        assert!(k05.message.contains("p = 29"), "{}", k05.message);
        assert_eq!(k05.severity, sf_check::Severity::Error);
    }

    #[test]
    fn rtm_range_is_finite_and_stability_not_applicable() {
        let a = analyze_app(AppId::Rtm3D).unwrap();
        assert!(a.range.finite_in_f32(), "{:?}", a.range);
        assert!(matches!(a.stability, StabilityVerdict::NotApplicable { .. }));
    }
}
