//! Memoized analytic-model results.
//!
//! Every consumer of the model re-derives the same pure functions: the DSE
//! sweep predicts hundreds of `(V, p, mode)` points, `Workflow::preflight`
//! re-checks the design the DSE just check-filtered, and repeated
//! `sfstencil` subcommands in one process (or one benchmark) recompute
//! identical eq. 2–15 plans. Both derivations are pure in
//! (device, design, workload), so they memoize safely behind a
//! [`PlanCache`]: a pair of [`sf_par::Memo`] caches keyed on a
//! deterministic `Debug` fingerprint of the inputs.
//!
//! A [`PlanCache`] is an owned value. The free functions
//! ([`predict_cached`], [`check_cached`], the stats accessors and
//! [`clear_caches`]) go through one process-wide instance,
//! [`PlanCache::global`]; callers that need cache statistics no other
//! thread can disturb (tests, cold-cache measurements) own a cache of
//! their own and pass it to [`crate::dse::explore_cached`].
//!
//! The caches are thread-safe (the parallel DSE hits them from worker
//! threads) and deterministic: a cached value is by definition the value
//! the underlying function returns, so cache hits can never change a
//! result, only skip recomputation.

use crate::error::ModelError;
use crate::predict::{predict, Prediction, PredictionLevel};
use sf_check::CheckReport;
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::FpgaDevice;
use sf_par::{Memo, MemoStats};
use std::sync::OnceLock;

/// Prediction and check-report memos for the analytic model.
#[derive(Debug)]
pub struct PlanCache {
    predictions: Memo<Prediction>,
    checks: Memo<CheckReport>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// Deterministic fingerprint of the device: the `Debug` rendering covers
/// every field, so two devices collide only when they are identical.
fn device_key(dev: &FpgaDevice) -> String {
    format!("{dev:?}")
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache { predictions: Memo::new(), checks: Memo::new() }
    }

    /// The process-wide cache behind the free functions of this module.
    pub fn global() -> &'static PlanCache {
        static CACHE: OnceLock<PlanCache> = OnceLock::new();
        CACHE.get_or_init(PlanCache::new)
    }

    /// [`predict`] through this cache.
    ///
    /// Keyed on (device, design, workload, iterations, level); errors are
    /// propagated and never cached.
    pub fn predict(
        &self,
        dev: &FpgaDevice,
        design: &StencilDesign,
        wl: &Workload,
        niter: u64,
        level: PredictionLevel,
    ) -> Result<Prediction, ModelError> {
        let key = format!("predict|{}|{design:?}|{wl:?}|{niter}|{level:?}", device_key(dev));
        self.predictions.try_get_or_insert_with(&key, || predict(dev, design, wl, niter, level))
    }

    /// [`sf_check::check`] through this cache.
    pub fn check(&self, dev: &FpgaDevice, design: &sf_check::Design) -> CheckReport {
        let key = format!("check|{}|{design:?}", device_key(dev));
        self.checks.get_or_insert_with(&key, || sf_check::check(dev, design))
    }

    /// Hit/miss/entry counters of the prediction memo.
    pub fn prediction_stats(&self) -> MemoStats {
        self.predictions.stats()
    }

    /// Hit/miss/entry counters of the check-report memo.
    pub fn check_stats(&self) -> MemoStats {
        self.checks.stats()
    }

    /// Drop every cached result.
    pub fn clear(&self) {
        self.predictions.clear();
        self.checks.clear();
    }
}

/// [`predict`] behind the process-wide prediction cache.
///
/// Keyed on (device, design, workload, iterations, level); errors are
/// propagated and never cached.
pub fn predict_cached(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    level: PredictionLevel,
) -> Result<Prediction, ModelError> {
    PlanCache::global().predict(dev, design, wl, niter, level)
}

/// [`sf_check::check`] behind the process-wide check-report cache.
///
/// The DSE pruning filter and `Workflow::preflight` check the same
/// configurations — a preflight of the DSE's winner is a guaranteed hit.
pub fn check_cached(dev: &FpgaDevice, design: &sf_check::Design) -> CheckReport {
    PlanCache::global().check(dev, design)
}

/// Hit/miss/entry counters of the process-wide prediction cache.
pub fn prediction_cache_stats() -> MemoStats {
    PlanCache::global().prediction_stats()
}

/// Hit/miss/entry counters of the process-wide check-report cache.
pub fn check_cache_stats() -> MemoStats {
    PlanCache::global().check_stats()
}

/// Drop every process-wide cached model result (cold-cache benchmarks).
pub fn clear_caches() {
    PlanCache::global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_fpga::design::{synthesize, ExecMode};
    use sf_fpga::MemKind;
    use sf_kernels::StencilSpec;

    #[test]
    fn cached_prediction_matches_uncached() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 96, ny: 96, batch: 1 };
        let ds =
            synthesize(&dev, &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let direct = predict(&dev, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
        let c1 = predict_cached(&dev, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
        let c2 = predict_cached(&dev, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
        assert_eq!(direct.cycles, c1.cycles);
        assert_eq!(c1.cycles, c2.cycles);
        assert_eq!(direct.runtime_s.to_bits(), c2.runtime_s.to_bits());
    }

    #[test]
    fn check_cache_returns_identical_reports() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 128, ny: 128, batch: 1 };
        let d = sf_check::Design::new(
            StencilSpec::poisson(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            wl,
        );
        let direct = sf_check::check(&dev, &d);
        let cached = check_cached(&dev, &d);
        assert_eq!(direct, cached);
        assert_eq!(check_cached(&dev, &d), cached);
    }

    #[test]
    fn distinct_levels_and_iters_get_distinct_entries() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 80, ny: 80, batch: 1 };
        let ds =
            synthesize(&dev, &StencilSpec::poisson(), 8, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let a = predict_cached(&dev, &ds, &wl, 100, PredictionLevel::Ideal).unwrap();
        let b = predict_cached(&dev, &ds, &wl, 200, PredictionLevel::Ideal).unwrap();
        assert!(b.cycles > a.cycles, "different iteration counts must not collide");
    }
}
