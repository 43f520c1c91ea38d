//! Pluggable pricing rules for the revised simplex.
//!
//! Pricing decides which nonbasic column enters the basis each pivot. The
//! seed engine hard-wired Dantzig's rule (full scan, most-positive reduced
//! cost) with a Bland fallback; this module turns the decision into the
//! [`Pricing`] trait with three implementations selected by
//! [`PricingRule`] in [`crate::simplex::SimplexOptions`]:
//!
//! * [`DantzigPricing`] — full scan, most-positive reduced cost. Simple and
//!   effective on small LPs; `O(nnz(A))` per iteration.
//! * [`BlandPricing`] — first improving index. Slow but cycling-proof; also
//!   what every rule degrades to when the simplex core detects stalling.
//! * [`DevexPricing`] — Devex reference weights with a **candidate list**
//!   (partial pricing): a rotating window of columns is scanned to keep a
//!   short list of improving candidates, the entering column maximizes
//!   `rc² / weight`, and the weights are updated from the pivot row after
//!   every pivot. Optimality is still exact: the rule only reports "no
//!   entering column" after a full wrap over every column found nothing
//!   improving.
//! * [`SteepestEdgePricing`] — primal steepest edge over the same candidate
//!   list. The weights track the exact edge norms
//!   `γ_j = 1 + ‖B⁻¹ a_j‖²`, initialized **exactly** at the slack basis
//!   (`B = I ⇒ γ_j = 1 + ‖a_j‖²`), updated per pivot with the
//!   Forrest–Goldfarb reference formulas driven by quantities the core
//!   already computes (the entering column's FTRAN image gives the exact
//!   `γ_q`; the pivot-row BTRAN that Devex pays gives the `α_j`), and
//!   **reset to exact values** for the candidate set at every scheduled
//!   refactorization. No extra linear solves per pivot.
//!
//! The simplex core owns the reduced-cost computation and hands it to the
//! rule as a closure, so rules never see the basis representation — that is
//! the [`crate::basis`] seam's job.
//!
//! ## Steepest-edge weight updates in formulas
//!
//! After a pivot with entering column `q`, leaving slot `l`, pivot row `α`
//! (`α_j = (e_lᵀ B⁻¹ A)_j`) and exact entering norm `γ_q = 1 + ‖B⁻¹ a_q‖²`
//! (one dot product over the FTRAN image, no extra solve), the reference
//! bounds are
//!
//! ```text
//! γ_j  ← max(γ_j, (α_j / α_q)² · γ_q)        (candidates j ≠ q)
//! γ_l  ← max(γ_q / α_q², 1)                  (the leaving variable)
//! ```
//!
//! — the same Forrest–Goldfarb scheme the dual simplex ([`crate::dual`])
//! uses for its dual steepest-edge weights. The `max` form drops the exact
//! cross term (which would need a second BTRAN per pivot) but never
//! *under*-estimates a norm that the update touches, and the periodic exact
//! reset at refactorization stops long-run drift.
//!
//! The same pivot row carries the candidates' **reduced costs**. With
//! `θ_d = rc_q / α_q` (the step the core applies to its duals,
//! `y ← y + θ_d·e_lᵀB⁻¹`),
//!
//! ```text
//! d_j  ← d_j − θ_d · α_j                     (candidates j ≠ q)
//! ```
//!
//! so a select scores each listed candidate in `O(1)` instead of a column
//! dot product. Columns the refill scan adds are priced fresh from the
//! core's `rc(j)`. The carried `d_j` only rank candidates. The pick is
//! re-certified against the core's `rc(j)` before it is returned, and if
//! that check fails the rule re-prices the whole list fresh. The cache is
//! dropped, and the list re-priced fresh on the next select, at every
//! refactorization, whenever the core recomputes its duals, and after any
//! pivot the rule did not choose (the Bland override). "No entering column"
//! still needs a full wrap of fresh `rc(j)`.

use serde::{Deserialize, Serialize};

/// Selects the pricing rule used by the revised simplex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PricingRule {
    /// Full-scan most-positive reduced cost.
    Dantzig,
    /// First improving index (terminating, used as the stall fallback).
    Bland,
    /// Devex reference weights with candidate-list partial pricing.
    Devex,
    /// Primal steepest edge: exact `1 + ‖B⁻¹a_j‖²` reference weights with
    /// Forrest–Goldfarb updates and candidate-list partial pricing.
    SteepestEdge,
}

impl PricingRule {
    /// Short stable name used in bench labels and stats tables.
    pub fn name(self) -> &'static str {
        match self {
            PricingRule::Dantzig => "dantzig",
            PricingRule::Bland => "bland",
            PricingRule::Devex => "devex",
            PricingRule::SteepestEdge => "steepest-edge",
        }
    }
}

/// A pricing rule: selects the entering column and observes pivots.
///
/// `eligible(j)` is `true` for nonbasic columns the current phase allows to
/// enter; `rc(j)` is the reduced cost of column `j` under the current duals
/// (maximization convention: improving means `rc > tol`). Implementations
/// must return `None` **only** when no eligible column is improving — the
/// simplex core takes `None` as proof of optimality for the current phase.
pub trait Pricing: std::fmt::Debug {
    /// Resets per-solve state for a problem with `n_total` columns.
    fn reset(&mut self, n_total: usize);

    /// Chooses the entering column, or `None` when provably optimal.
    fn select_entering(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<usize>;

    /// Whether [`notify_pivot`](Self::notify_pivot) needs the pivot row
    /// (`alpha(j) = (eᵣᵀ B⁻¹ A)_j`). The core skips the (hyper-sparse)
    /// BTRAN that produces it when this returns `false`.
    fn wants_pivot_row(&self) -> bool {
        false
    }

    /// Observes a pivot: column `entering` replaced `leaving` (now
    /// nonbasic); `alpha_entering` is the pivot element and `alpha(j)`
    /// evaluates the pivot row at other columns (only meaningful when
    /// [`wants_pivot_row`](Self::wants_pivot_row) is `true`). The closure
    /// dots column `j` against the core's indexed BTRAN image, so each
    /// evaluation costs `O(nnz(A_j))` regardless of how dense `eᵣᵀ B⁻¹`
    /// came out — weight updates over a candidate list stay cheap even
    /// when the basis inverse itself has filled in.
    fn notify_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        alpha_entering: f64,
        alpha: &dyn Fn(usize) -> f64,
    ) {
        let _ = (entering, leaving, alpha_entering, alpha);
    }

    /// Seeds exact reference weights for an **identity** starting basis
    /// (`B = I ⇒ ‖B⁻¹a_j‖² = ‖a_j‖²`): `norm_sq(j)` is the squared norm of
    /// column `j` of the constraint matrix. Called by the core right after
    /// a cold start; default no-op.
    fn seed_reference_weights(&mut self, n_total: usize, norm_sq: &dyn Fn(usize) -> f64) {
        let _ = (n_total, norm_sq);
    }

    /// Observes the exact squared norm `‖B⁻¹a_e‖²` of the entering column's
    /// FTRAN image, which the core computes anyway for the ratio test — a
    /// free exact weight for the entering column. Default no-op.
    fn observe_entering(&mut self, entering: usize, norm_sq: f64) {
        let _ = (entering, norm_sq);
    }

    /// Observes that the core recomputed its duals from scratch or rebuilt
    /// the factors since the last pivot: reduced costs the rule carries
    /// across pivots no longer match the core's and must be re-priced.
    /// Default no-op.
    fn notify_duals_reset(&mut self) {}

    /// Notifies the rule of a scheduled refactorization; `norm_sq(j)`
    /// computes the exact `‖B⁻¹a_j‖²` for one column (one sparse FTRAN
    /// against the freshly built factors). Implementations may refresh a
    /// bounded set of weights — steepest edge resets its candidate list to
    /// exact values here. Default no-op.
    fn notify_refactor(&mut self, norm_sq: &dyn Fn(usize) -> f64) {
        let _ = norm_sq;
    }
}

/// Creates a pricing rule of the requested kind.
pub fn make_pricing(rule: PricingRule) -> Box<dyn Pricing> {
    match rule {
        PricingRule::Dantzig => Box::new(DantzigPricing),
        PricingRule::Bland => Box::new(BlandPricing),
        PricingRule::Devex => Box::new(DevexPricing::default()),
        PricingRule::SteepestEdge => Box::new(SteepestEdgePricing::default()),
    }
}

/// Full-scan most-positive reduced cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct DantzigPricing;

impl Pricing for DantzigPricing {
    fn reset(&mut self, _n_total: usize) {}

    fn select_entering(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_rc = tol;
        for j in 0..n_total {
            if !eligible(j) {
                continue;
            }
            let r = rc(j);
            if r > best_rc {
                best_rc = r;
                best = Some(j);
            }
        }
        best
    }
}

/// First improving index (Bland's rule).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlandPricing;

impl Pricing for BlandPricing {
    fn reset(&mut self, _n_total: usize) {}

    fn select_entering(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<usize> {
        (0..n_total).find(|&j| eligible(j) && rc(j) > tol)
    }
}

/// Devex pricing with a candidate list.
///
/// Reference weights `w_j ≥ 1` approximate the steepest-edge norms; the
/// entering column maximizes `rc_j² / w_j`. The candidate list keeps the
/// per-iteration scan at `O(|list| + chunk)` instead of `O(n_total)`,
/// refilling from a rotating cursor; a full-wrap empty scan certifies
/// optimality exactly like a full Dantzig scan would.
#[derive(Clone, Debug, Default)]
pub struct DevexPricing {
    weights: Vec<f64>,
    candidates: Vec<usize>,
    in_list: Vec<bool>,
    cursor: usize,
    /// Largest weight seen since the last framework reset.
    max_weight: f64,
}

impl DevexPricing {
    /// Refill chunk: how many *new improving* candidates one select call
    /// tries to harvest before stopping the scan.
    ///
    /// Sized at half the column count (the seed used `n/8`, capped at 512):
    /// on the e13 packing grid the thin list kept entering columns with
    /// stale scores and paid for it in pivots — `n/2` cuts Devex pivot
    /// counts by ~10–25% at n ∈ {400, 800} for the same per-scan cost
    /// order, now that the pivot-row BTRAN is shared with the dual update.
    fn chunk(n_total: usize) -> usize {
        (n_total / 2).clamp(64, 2048)
    }

    /// Keep scanning while the list is thinner than this.
    fn min_keep(n_total: usize) -> usize {
        (n_total / 8).clamp(16, 256)
    }

    /// Weights above this trigger a reference-framework reset.
    const WEIGHT_RESET: f64 = 1e10;
}

impl Pricing for DevexPricing {
    fn reset(&mut self, n_total: usize) {
        self.weights.clear();
        self.weights.resize(n_total, 1.0);
        self.candidates.clear();
        self.in_list.clear();
        self.in_list.resize(n_total, false);
        self.cursor = 0;
        self.max_weight = 1.0;
    }

    fn select_entering(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<usize> {
        if self.weights.len() != n_total {
            // column count grew since reset (defensive; the core resets per
            // phase) — extend with unit weights
            self.weights.resize(n_total, 1.0);
            self.in_list.resize(n_total, false);
        }
        let mut best: Option<(usize, f64)> = None;
        // re-price the surviving candidates
        let mut kept = Vec::with_capacity(self.candidates.len());
        for &j in &self.candidates {
            if !eligible(j) {
                self.in_list[j] = false;
                continue;
            }
            let r = rc(j);
            if r > tol {
                let score = r * r / self.weights[j];
                if best.as_ref().map(|&(_, s)| score > s).unwrap_or(true) {
                    best = Some((j, score));
                }
                kept.push(j);
            } else {
                self.in_list[j] = false;
            }
        }
        self.candidates = kept;

        // refill from the rotating cursor when the list runs thin; a full
        // wrap with nothing improving proves optimality
        if self.candidates.len() < Self::min_keep(n_total) {
            let chunk = Self::chunk(n_total);
            let mut scanned = 0usize;
            let mut found = 0usize;
            while scanned < n_total && (found < chunk || best.is_none()) {
                let j = self.cursor;
                self.cursor = (self.cursor + 1) % n_total.max(1);
                scanned += 1;
                if self.in_list[j] || !eligible(j) {
                    continue;
                }
                let r = rc(j);
                if r > tol {
                    self.candidates.push(j);
                    self.in_list[j] = true;
                    found += 1;
                    let score = r * r / self.weights[j];
                    if best.as_ref().map(|&(_, s)| score > s).unwrap_or(true) {
                        best = Some((j, score));
                    }
                }
            }
        }
        best.map(|(j, _)| j)
    }

    fn wants_pivot_row(&self) -> bool {
        // the pivot row only feeds candidate weight updates — skip the
        // BTRAN entirely while the list is empty
        !self.candidates.is_empty()
    }

    fn notify_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        alpha_entering: f64,
        alpha: &dyn Fn(usize) -> f64,
    ) {
        if alpha_entering.abs() <= 1e-12 {
            return;
        }
        let wq = self.weights[entering].max(1.0);
        let inv_aq2 = 1.0 / (alpha_entering * alpha_entering);
        // update the candidates' reference weights from the pivot row
        for i in 0..self.candidates.len() {
            let j = self.candidates[i];
            if j == entering {
                continue;
            }
            let aj = alpha(j);
            if aj != 0.0 {
                let cand = aj * aj * inv_aq2 * wq;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                    if cand > self.max_weight {
                        self.max_weight = cand;
                    }
                }
            }
        }
        // the leaving variable becomes nonbasic with the textbook weight
        if leaving < self.weights.len() {
            self.weights[leaving] = (wq * inv_aq2).max(1.0);
        }
        // the entering column leaves the nonbasic set
        if entering < self.in_list.len() && self.in_list[entering] {
            self.in_list[entering] = false;
            self.candidates.retain(|&j| j != entering);
        }
        // reference framework reset when weights degenerate
        if self.max_weight > Self::WEIGHT_RESET {
            for w in &mut self.weights {
                *w = 1.0;
            }
            self.max_weight = 1.0;
        }
    }
}

/// Primal steepest-edge pricing with a candidate list.
///
/// The weights approximate the exact edge norms `γ_j = 1 + ‖B⁻¹a_j‖²` (so
/// the entering column maximizes `rc_j² / γ_j`, the squared objective rate
/// of change per unit distance along the edge). Three exactness anchors
/// keep them honest without any extra linear solves:
///
/// 1. **Slack-basis seed** — at a cold start `B = I`, so
///    [`seed_reference_weights`](Pricing::seed_reference_weights) installs
///    the exact `1 + ‖a_j‖²` for every column.
/// 2. **Exact entering norm** — the core reports `‖B⁻¹a_e‖²` of the
///    entering column's FTRAN image each pivot
///    ([`observe_entering`](Pricing::observe_entering)); the
///    Forrest–Goldfarb candidate/leaving updates in
///    [`notify_pivot`](Pricing::notify_pivot) are driven by that exact
///    `γ_q` rather than a drifting estimate.
/// 3. **Refactorization reset** — each scheduled refactor, the candidate
///    list's weights are recomputed exactly from the fresh factors
///    ([`notify_refactor`](Pricing::notify_refactor)); the work is bounded
///    by the list length, which partial pricing already caps.
///
/// Listed candidates also carry their reduced costs across the pivots this
/// rule chooses, updated from the same pivot row (see the module docs), so
/// re-scoring the list costs `O(1)` per candidate. A pick is re-checked
/// against the core's `rc(j)` before it is returned.
///
/// Candidate-list mechanics (rotating-cursor refill, full-wrap optimality
/// certification) are identical to [`DevexPricing`].
#[derive(Clone, Debug, Default)]
pub struct SteepestEdgePricing {
    weights: Vec<f64>,
    candidates: Vec<usize>,
    in_list: Vec<bool>,
    cursor: usize,
    /// Largest weight seen since the last framework reset.
    max_weight: f64,
    /// Exact `γ_q = 1 + ‖B⁻¹a_q‖²` of the last observed entering column.
    entering_norm: f64,
    /// Which column `entering_norm` belongs to.
    entering_col: usize,
    /// Carried reduced costs `d_j` of the listed candidates (valid while
    /// `carried`), updated per pivot as `d_j ← d_j − θ_d·α_j`.
    reduced: Vec<f64>,
    /// Whether `reduced` tracks the core's duals for every listed candidate.
    carried: bool,
    /// The last pick and its re-checked reduced cost `rc_e`, consumed by the
    /// next [`notify_pivot`](Pricing::notify_pivot) if that pivot enters it.
    picked: Option<(usize, f64)>,
}

impl SteepestEdgePricing {
    /// Weights above this trigger a reference-framework reset (matches the
    /// dual steepest-edge reset in [`crate::dual`]).
    const WEIGHT_RESET: f64 = 1e12;

    /// Re-scores the candidate list — from the carried `d_j` while
    /// `carried`, else from the core's `rc(j)` — and refills it from the
    /// rotating cursor with fresh `rc(j)` when it runs thin. Returns the best
    /// `(column, score)`; `None` only after a full wrap over every column
    /// outside the list found no fresh `rc(j)` improving, with the list
    /// itself empty (same discipline and chunk sizing as Devex).
    fn scan(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<(usize, f64)> {
        let fresh = !self.carried;
        self.carried = true;
        let mut best: Option<(usize, f64)> = None;
        let mut kept = Vec::with_capacity(self.candidates.len());
        for &j in &self.candidates {
            if !eligible(j) {
                self.in_list[j] = false;
                continue;
            }
            let r = if fresh { rc(j) } else { self.reduced[j] };
            if r > tol {
                self.reduced[j] = r;
                let score = r * r / self.weights[j];
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((j, score));
                }
                kept.push(j);
            } else {
                self.in_list[j] = false;
            }
        }
        self.candidates = kept;

        if self.candidates.len() < DevexPricing::min_keep(n_total) {
            let chunk = DevexPricing::chunk(n_total);
            let mut scanned = 0usize;
            let mut found = 0usize;
            while scanned < n_total && (found < chunk || best.is_none()) {
                let j = self.cursor;
                self.cursor = (self.cursor + 1) % n_total.max(1);
                scanned += 1;
                if self.in_list[j] || !eligible(j) {
                    continue;
                }
                let r = rc(j);
                if r > tol {
                    self.candidates.push(j);
                    self.in_list[j] = true;
                    self.reduced[j] = r;
                    found += 1;
                    let score = r * r / self.weights[j];
                    if best.is_none_or(|(_, s)| score > s) {
                        best = Some((j, score));
                    }
                }
            }
        }
        best
    }
}

impl Pricing for SteepestEdgePricing {
    fn reset(&mut self, n_total: usize) {
        self.weights.clear();
        self.weights.resize(n_total, 1.0);
        self.candidates.clear();
        self.in_list.clear();
        self.in_list.resize(n_total, false);
        self.cursor = 0;
        self.max_weight = 1.0;
        self.entering_norm = 1.0;
        self.entering_col = usize::MAX;
        self.reduced.clear();
        self.reduced.resize(n_total, 0.0);
        self.carried = false;
        self.picked = None;
    }

    fn select_entering(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<usize> {
        if self.weights.len() != n_total {
            self.weights.resize(n_total, 1.0);
            self.in_list.resize(n_total, false);
        }
        self.reduced.resize(n_total, 0.0);
        self.picked = None;
        loop {
            let (j, _) = self.scan(n_total, tol, eligible, rc)?;
            // Re-certify the pick against the core's reduced cost: a drifted
            // d_j may rank a column, but never lets a non-improving one in.
            let r = rc(j);
            self.reduced[j] = r;
            if r > tol {
                self.picked = Some((j, r));
                return Some(j);
            }
            // The cache drifted. The next scan re-prices every candidate from
            // rc(j), so its pick re-checks to the same value and is returned.
            self.carried = false;
        }
    }

    fn wants_pivot_row(&self) -> bool {
        !self.candidates.is_empty()
    }

    fn notify_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        alpha_entering: f64,
        alpha: &dyn Fn(usize) -> f64,
    ) {
        // θ_d = rc_e / α_e carries the listed d_j across this pivot, but only
        // across a pivot this rule chose; a Bland-override pivot (or any
        // other) drops the cache instead
        let theta_d = match self.picked.take() {
            Some((j, rc_e)) if self.carried && j == entering && alpha_entering.abs() > 1e-12 => {
                Some(rc_e / alpha_entering)
            }
            _ => None,
        };
        self.carried = theta_d.is_some();
        if alpha_entering.abs() <= 1e-12 {
            return;
        }
        // exact γ_q when the core observed this column's FTRAN, else the
        // stored reference weight
        let gq = if self.entering_col == entering {
            self.entering_norm
        } else {
            self.weights.get(entering).copied().unwrap_or(1.0).max(1.0)
        };
        let inv_aq2 = 1.0 / (alpha_entering * alpha_entering);
        for i in 0..self.candidates.len() {
            let j = self.candidates[i];
            if j == entering {
                continue;
            }
            let aj = alpha(j);
            if aj != 0.0 {
                if let Some(theta_d) = theta_d {
                    self.reduced[j] -= theta_d * aj;
                }
                let cand = aj * aj * inv_aq2 * gq;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                    if cand > self.max_weight {
                        self.max_weight = cand;
                    }
                }
            }
        }
        if leaving < self.weights.len() {
            self.weights[leaving] = (gq * inv_aq2).max(1.0);
        }
        if entering < self.in_list.len() && self.in_list[entering] {
            self.in_list[entering] = false;
            self.candidates.retain(|&j| j != entering);
        }
        if self.max_weight > Self::WEIGHT_RESET {
            for w in &mut self.weights {
                *w = 1.0;
            }
            self.max_weight = 1.0;
        }
    }

    fn seed_reference_weights(&mut self, n_total: usize, norm_sq: &dyn Fn(usize) -> f64) {
        if self.weights.len() != n_total {
            self.weights.resize(n_total, 1.0);
            self.in_list.resize(n_total, false);
        }
        for (j, w) in self.weights.iter_mut().enumerate() {
            *w = 1.0 + norm_sq(j);
        }
        self.max_weight = self.weights.iter().cloned().fold(1.0, f64::max);
    }

    fn observe_entering(&mut self, entering: usize, norm_sq: f64) {
        self.entering_col = entering;
        self.entering_norm = 1.0 + norm_sq;
        if entering < self.weights.len() {
            self.weights[entering] = self.entering_norm;
        }
    }

    fn notify_duals_reset(&mut self) {
        self.carried = false;
    }

    fn notify_refactor(&mut self, norm_sq: &dyn Fn(usize) -> f64) {
        self.carried = false;
        // exact reset for the candidate set — bounded by the list length
        // (≤ min_keep + chunk), amortized over refactor_interval pivots
        let mut max_w = 1.0f64;
        for &j in &self.candidates {
            self.weights[j] = 1.0 + norm_sq(j);
            max_w = max_w.max(self.weights[j]);
        }
        self.max_weight = max_w;
    }
}

#[cfg(test)]
impl SteepestEdgePricing {
    /// The listed candidates with their carried `d_j`, or `None` while the
    /// cache is dropped.
    pub(crate) fn carried_reduced_costs(&self) -> Option<Vec<(usize, f64)>> {
        self.carried.then(|| {
            self.candidates
                .iter()
                .map(|&j| (j, self.reduced[j]))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic pricing problem: 6 columns, fixed reduced costs.
    fn rcs() -> Vec<f64> {
        vec![-1.0, 0.5, 3.0, 0.0, 2.0, -0.2]
    }

    #[test]
    fn dantzig_picks_most_positive() {
        let rc = rcs();
        let mut p = DantzigPricing;
        p.reset(rc.len());
        let pick = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn bland_picks_first_improving() {
        let rc = rcs();
        let mut p = BlandPricing;
        p.reset(rc.len());
        let pick = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn devex_with_unit_weights_matches_dantzig() {
        let rc = rcs();
        let mut p = DevexPricing::default();
        p.reset(rc.len());
        let pick = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn devex_respects_weights() {
        let rc = rcs();
        let mut p = DevexPricing::default();
        p.reset(rc.len());
        // inflate column 2's weight so 2.0²/1 beats 3.0²/100
        p.weights[2] = 100.0;
        let pick = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert_eq!(pick, Some(4));
    }

    #[test]
    fn steepest_edge_seeds_exact_slack_basis_weights() {
        // column norms ‖a_j‖²: picks rc²/(1+‖a_j‖²) maximizer
        let rc = [2.0, 2.0, 1.0];
        let norms = [8.0, 0.0, 0.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        p.seed_reference_weights(rc.len(), &|j| norms[j]);
        assert_eq!(p.weights, vec![9.0, 1.0, 1.0]);
        // 4/9 < 4/1: column 1 wins despite the tie on reduced cost
        let pick = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn steepest_edge_uses_exact_entering_norm_for_updates() {
        let rc = [3.0, 1.0, 2.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        assert_eq!(
            p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]),
            Some(0)
        );
        // core observed ‖B⁻¹a_0‖² = 3 → γ_0 = 4 exactly
        p.observe_entering(0, 3.0);
        // pivot: α_0 = 2, pivot row α = [2, 1, 0]; leaving slot maps to
        // column 1's weight slot via the leaving id
        p.notify_pivot(0, 1, 2.0, &|j| [2.0, 1.0, 0.0][j]);
        // candidate 2 was in the list with α_2 = 0 → untouched (weight 1);
        // candidate 1: α_1 = 1 → max(1, (1/2)²·4) = 1 (no increase beyond 1)
        // leaving weight: max(γ_q/α_q², 1) = max(4/4, 1) = 1
        assert!((p.weights[1] - 1.0).abs() < 1e-12);
        // now a pivot with a stronger row: α_entering = 0.5
        p.observe_entering(2, 15.0); // γ_2 = 16
        p.notify_pivot(2, 0, 0.5, &|j| [0.0, 1.0, 0.5][j]);
        // leaving weight for column 0: max(16/0.25, 1) = 64
        assert!((p.weights[0] - 64.0).abs() < 1e-12);
    }

    #[test]
    fn steepest_edge_refactor_reset_refreshes_candidates() {
        let rc = [1.0, 1.0, 1.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        // populate the candidate list
        let _ = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert!(!p.candidates.is_empty());
        p.notify_refactor(&|j| (j as f64) * 10.0);
        for &j in &p.candidates {
            assert!((p.weights[j] - (1.0 + j as f64 * 10.0)).abs() < 1e-12);
        }
    }

    /// Reduced costs before the pivot of [`carried_pricer`]; column 4 plays
    /// the basic variable that leaves.
    const RC_BEFORE: [f64; 5] = [3.0, 2.0, 1.0, 0.5, -1.0];

    /// Steepest edge after choosing column 0 from [`RC_BEFORE`] and pivoting
    /// it in with `α_0 = 2` and pivot row `α = [2, 1, 0, −1, 1]`, so that
    /// `θ_d = 3 / 2` and the listed columns carry `d = [·, 0.5, 1, 2]`.
    fn carried_pricer() -> SteepestEdgePricing {
        let n = RC_BEFORE.len();
        let mut p = SteepestEdgePricing::default();
        p.reset(n);
        let pick = p.select_entering(n, 1e-9, &|j| j != 4, &|j| RC_BEFORE[j]);
        assert_eq!(pick, Some(0));
        p.notify_pivot(0, 4, 2.0, &|j| [2.0, 1.0, 0.0, -1.0, 1.0][j]);
        p
    }

    #[test]
    fn steepest_edge_carries_reduced_costs_across_its_pivots() {
        let mut carried = carried_pricer()
            .carried_reduced_costs()
            .expect("cache kept");
        carried.sort_by_key(|e| e.0);
        assert_eq!(carried, vec![(1, 0.5), (2, 1.0), (3, 2.0)]);
    }

    #[test]
    fn stale_carried_reduced_cost_never_enters() {
        // the core's reduced costs after the pivot; column 2's carried d_j
        // is corrupted far above its true (non-improving) value
        let rc_after = [0.0, 0.5, -1.0, 2.0, -1.5];
        let mut p = carried_pricer();
        p.reduced[2] = 50.0;
        let pick = p.select_entering(5, 1e-9, &|j| j != 0, &|j| rc_after[j]);
        assert_eq!(pick, Some(3), "the re-check must reject column 2");

        // nothing truly improves: a stale cache must not manufacture a pick,
        // and None comes only from the fresh full wrap
        let mut p = carried_pricer();
        p.reduced[1] = 50.0;
        let pick = p.select_entering(5, 1e-9, &|j| j != 0, &|j| -(j as f64) - 0.1);
        assert_eq!(pick, None);
    }

    #[test]
    fn refactor_and_unchosen_pivots_drop_the_carried_cache() {
        let mut p = carried_pricer();
        p.notify_refactor(&|_| 0.0);
        assert!(
            p.carried_reduced_costs().is_none(),
            "refactor keeps the cache"
        );

        let mut p = carried_pricer();
        p.notify_duals_reset();
        assert!(
            p.carried_reduced_costs().is_none(),
            "fresh duals keep the cache"
        );

        // a Bland-override pivot: the core entered column 3 without asking
        let mut p = carried_pricer();
        p.notify_pivot(3, 0, 1.0, &|j| [0.0, 1.0, 1.0, 1.0, 0.0][j]);
        assert!(
            p.carried_reduced_costs().is_none(),
            "unchosen pivot keeps the cache"
        );
    }

    #[test]
    fn all_rules_certify_optimality() {
        let rc = [-1.0, -0.5, 0.0];
        for rule in [
            PricingRule::Dantzig,
            PricingRule::Bland,
            PricingRule::Devex,
            PricingRule::SteepestEdge,
        ] {
            let mut p = make_pricing(rule);
            p.reset(rc.len());
            assert_eq!(
                p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]),
                None,
                "{rule:?} must certify optimality"
            );
        }
    }

    #[test]
    fn devex_ignores_ineligible_columns() {
        let rc = rcs();
        let mut p = DevexPricing::default();
        p.reset(rc.len());
        let pick = p.select_entering(rc.len(), 1e-9, &|j| j != 2, &|j| rc[j]);
        assert_eq!(pick, Some(4));
    }

    #[test]
    fn devex_candidate_list_survives_across_calls() {
        let mut rc = rcs();
        let mut p = DevexPricing::default();
        p.reset(rc.len());
        assert_eq!(
            p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]),
            Some(2)
        );
        // column 2 entered the basis: mark ineligible, its candidate entry
        // must be pruned rather than returned again
        rc[2] = -5.0;
        let pick = p.select_entering(rc.len(), 1e-9, &|j| j != 2, &|j| rc[j]);
        assert_eq!(pick, Some(4));
    }
}
