//! LP-engine counters summed over a run, from the per-solve
//! `RelaxationInfo` of one-shot clears and sealed resolves, or from the
//! exchange's `LpActivity` rollup.

use crate::stats::{ratio, Metrics};
use ssa_core::lp_formulation::RelaxationInfo;
use ssa_exchange::LpActivity;

#[derive(Clone, Debug, Default)]
pub struct LpTally {
    solves: usize,
    pricing_rounds: usize,
    columns_generated: usize,
    pool_hits: usize,
    pivots: usize,
    /// `None` when the source does not count degenerate pivots
    /// (`LpActivity` has no such field).
    degenerate: Option<usize>,
    refactorizations: usize,
    forced_refactorizations: usize,
    dual_pivots: usize,
    ftran_sparse: usize,
    ftran_dense: usize,
    btran_sparse: usize,
    btran_dense: usize,
    /// Σ density × tracked solves, for the tracked-solve-weighted mean.
    density_mass: f64,
}

impl LpTally {
    fn tracked(&self) -> usize {
        self.ftran_sparse + self.ftran_dense + self.btran_sparse + self.btran_dense
    }

    pub fn add_info(&mut self, info: &RelaxationInfo) {
        let tracked = info.ftran_sparse_hits
            + info.ftran_dense_fallbacks
            + info.btran_sparse_hits
            + info.btran_dense_fallbacks;
        self.solves += 1;
        self.pricing_rounds += info.pricing_rounds;
        self.columns_generated += info.columns_generated;
        self.pool_hits += info.pool_hits;
        self.pivots += info.simplex_iterations;
        self.degenerate = Some(self.degenerate.unwrap_or(0) + info.degenerate_pivots);
        self.refactorizations += info.refactorizations;
        self.forced_refactorizations += info.forced_refactorizations;
        self.dual_pivots += info.dual_pivots;
        self.ftran_sparse += info.ftran_sparse_hits;
        self.ftran_dense += info.ftran_dense_fallbacks;
        self.btran_sparse += info.btran_sparse_hits;
        self.btran_dense += info.btran_dense_fallbacks;
        self.density_mass += info.avg_result_density * tracked as f64;
    }

    /// Adds the activity of `solves` shard resolves (the difference of two
    /// `ExchangeStats::lp` snapshots).
    pub fn add_activity(&mut self, after: &LpActivity, before: &LpActivity, solves: usize) {
        let mass = |a: &LpActivity| a.avg_result_density * a.tracked_solves() as f64;
        self.solves += solves;
        self.pricing_rounds += after.pricing_rounds - before.pricing_rounds;
        self.columns_generated += after.columns_generated - before.columns_generated;
        self.pool_hits += after.pool_hits - before.pool_hits;
        self.pivots += after.simplex_iterations - before.simplex_iterations;
        self.refactorizations += after.refactorizations - before.refactorizations;
        self.forced_refactorizations +=
            after.forced_refactorizations - before.forced_refactorizations;
        self.dual_pivots += after.dual_pivots - before.dual_pivots;
        self.ftran_sparse += after.ftran_sparse_hits - before.ftran_sparse_hits;
        self.ftran_dense += after.ftran_dense_fallbacks - before.ftran_dense_fallbacks;
        self.btran_sparse += after.btran_sparse_hits - before.btran_sparse_hits;
        self.btran_dense += after.btran_dense_fallbacks - before.btran_dense_fallbacks;
        self.density_mass += mass(after) - mass(before);
    }

    pub fn merge(&mut self, other: &LpTally) {
        self.solves += other.solves;
        self.pricing_rounds += other.pricing_rounds;
        self.columns_generated += other.columns_generated;
        self.pool_hits += other.pool_hits;
        self.pivots += other.pivots;
        self.degenerate = match (self.degenerate, other.degenerate) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        self.refactorizations += other.refactorizations;
        self.forced_refactorizations += other.forced_refactorizations;
        self.dual_pivots += other.dual_pivots;
        self.ftran_sparse += other.ftran_sparse;
        self.ftran_dense += other.ftran_dense;
        self.btran_sparse += other.btran_sparse;
        self.btran_dense += other.btran_dense;
        self.density_mass += other.density_mass;
    }

    /// The `core.lp_formulation.*` counts and `lp.*` metrics. `lp_seconds`
    /// is the wall time the solves took, the base of `lp.us_per_pivot`;
    /// `basis` names what that time covers.
    pub fn push_metrics(&self, m: &mut Metrics, lp_seconds: f64, basis: &str) {
        let per_solve = |x: usize| ratio(x as f64, self.solves as f64);
        let n = self.solves;
        m.push(
            "core.lp_formulation.pricing_rounds",
            per_solve(self.pricing_rounds),
            "count",
            n,
            "mean per solve",
        );
        m.push(
            "core.lp_formulation.columns_generated",
            per_solve(self.columns_generated),
            "count",
            n,
            "mean per solve",
        );
        m.push(
            "core.lp_formulation.pool_hits",
            per_solve(self.pool_hits),
            "count",
            n,
            "mean per solve",
        );
        m.push(
            "lp.pivots",
            per_solve(self.pivots),
            "count",
            n,
            "mean per solve",
        );
        m.push(
            "lp.us_per_pivot",
            ratio(lp_seconds * 1e6, self.pivots as f64),
            "us",
            self.pivots,
            &format!("{basis} / pivots"),
        );
        let (degenerate, note) = match self.degenerate {
            Some(d) => (ratio(d as f64, self.pivots as f64), "degenerate / pivots"),
            None => (0.0, "not counted by LpActivity"),
        };
        m.push(
            "lp.degenerate_share",
            degenerate,
            "ratio",
            self.pivots,
            note,
        );
        m.push(
            "lp.refactorizations",
            per_solve(self.refactorizations),
            "count",
            n,
            "mean per solve",
        );
        m.push(
            "lp.forced_refactorizations",
            per_solve(self.forced_refactorizations),
            "count",
            n,
            "mean per solve",
        );
        m.push(
            "lp.dual_pivots",
            per_solve(self.dual_pivots),
            "count",
            n,
            "mean per solve",
        );
        let ftran = self.ftran_sparse + self.ftran_dense;
        let btran = self.btran_sparse + self.btran_dense;
        m.push(
            "lp.ftran_dense_share",
            ratio(self.ftran_dense as f64, ftran as f64),
            "ratio",
            ftran,
            "dense fallbacks / FTRANs",
        );
        m.push(
            "lp.btran_dense_share",
            ratio(self.btran_dense as f64, btran as f64),
            "ratio",
            btran,
            "dense fallbacks / BTRANs",
        );
        m.push(
            "lp.avg_result_density",
            ratio(self.density_mass, self.tracked() as f64),
            "ratio",
            self.tracked(),
            "nnz / m, weighted by tracked FTRAN+BTRAN",
        );
    }

    /// The integer counters, for the determinism check.
    pub fn counts(&self, prefix: &str) -> Vec<(String, String)> {
        [
            ("solves", self.solves),
            ("pricing_rounds", self.pricing_rounds),
            ("columns_generated", self.columns_generated),
            ("pool_hits", self.pool_hits),
            ("pivots", self.pivots),
            ("degenerate", self.degenerate.unwrap_or(0)),
            ("refactorizations", self.refactorizations),
            ("forced_refactorizations", self.forced_refactorizations),
            ("dual_pivots", self.dual_pivots),
            ("ftran_sparse", self.ftran_sparse),
            ("ftran_dense", self.ftran_dense),
            ("btran_sparse", self.btran_sparse),
            ("btran_dense", self.btran_dense),
        ]
        .into_iter()
        .map(|(name, value)| (format!("{prefix}.{name}"), value.to_string()))
        .collect()
    }
}
