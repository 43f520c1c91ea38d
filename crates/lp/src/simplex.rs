//! A sparse **revised simplex** engine with pluggable pricing and basis
//! factorization.
//!
//! The seed implementation kept the full dense tableau `[B⁻¹A | B⁻¹b]` and
//! touched all `m · n_total` entries on every pivot; PR 1 replaced it with a
//! revised method around a hard-wired dense product-form inverse and a
//! Dantzig scan. This revision splits the engine along its two classic
//! seams, both selected per solve through [`SimplexOptions`]:
//!
//! * **Pricing** ([`crate::pricing`]) — Dantzig (full scan), Bland (first
//!   improving, terminating), or Devex with a candidate list (partial
//!   pricing; the default). After `stall_threshold` pivots without
//!   objective improvement the core overrides any rule with Bland's rule,
//!   which guarantees termination.
//! * **Basis factorization** ([`crate::basis`]) — the dense product-form
//!   inverse (`O(m²)` per pivot, the PR 1 representation) or a sparse LU
//!   with Bartels–Golub/Forrest–Tomlin-style eta updates (the default),
//!   whose FTRAN/BTRAN cost is proportional to the factor sparsity rather
//!   than `m²`.
//!
//! **Refactorization**: every [`SimplexOptions::refactor_interval`] pivots
//! (and whenever the factorization declines an update or a warm-started
//! basis looks inconsistent) the factorization is rebuilt from the basis
//! columns and the basic solution is recomputed as `x_B = B⁻¹ b`. The
//! number of refactorizations and degenerate pivots is reported in
//! [`LpSolution::stats`] so benches can attribute time per stage.
//!
//! **Warm starts**: [`solve_with_warm_start`] accepts the [`WarmStart`]
//! returned by a previous solve over the *same rows* and resumes from that
//! basis, skipping phase 1 entirely. The state carries the basis *and* its
//! factorization (moved, not copied), so a warm re-solve pays no
//! re-factorization when the engine kind is unchanged. Column generation
//! exploits this: new columns enter nonbasic, so each master re-solve
//! continues from the previous optimum.
//!
//! Packing LPs (all `≤` constraints with non-negative right-hand sides) are
//! detected automatically and start from the all-slack basis, skipping
//! phase 1; general `≥`/`=` rows go through a standard two-phase scheme with
//! artificial variables. The dense tableau solver survives as
//! [`crate::dense`]; property tests assert every pricing × basis
//! combination agrees with it to 1e-6.

use crate::basis::{
    make_factorization, BasisFactorization, BasisKind, SparseColumn, SparseVector, SparsityStats,
};
use crate::pricing::{make_pricing, Pricing, PricingRule};
use crate::problem::{CscMatrix, LinearProgram, Relation, Sense};
use serde::{Deserialize, Serialize};

/// Termination status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was hit before optimality was proven.
    IterationLimit,
}

/// Per-solve engine statistics (exposed up the stack as
/// `RelaxationInfo` so benches can attribute time per stage).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SolveStats {
    /// Pricing rule that ran.
    pub pricing: PricingRule,
    /// Basis factorization that ran.
    pub basis: BasisKind,
    /// Simplex pivots across both phases.
    pub iterations: usize,
    /// Factorization rebuilds, **total** (scheduled periodic hygiene plus
    /// stability-forced; the forced subset is
    /// [`forced_refactorizations`](Self::forced_refactorizations)).
    pub refactorizations: usize,
    /// Stability-forced factorization rebuilds: the representation declined
    /// a pivot update (tiny pivot, full eta file, unstable FT diagonal) or a
    /// numerically degenerate direction forced a rebuild-and-retry. The
    /// scheduled-hygiene count is `refactorizations − forced_refactorizations`.
    pub forced_refactorizations: usize,
    /// Pivots whose leaving variable was already at zero.
    pub degenerate_pivots: usize,
    /// Dual-simplex reoptimization pivots ([`crate::dual`]) that repaired
    /// primal feasibility after row additions before this (primal) solve
    /// resumed. Always 0 on the plain primal path.
    pub dual_pivots: usize,
    /// FTRANs answered on the hyper-sparse (Gilbert–Peierls) path, whose
    /// cost was proportional to the solve graph reached from the RHS
    /// support rather than to `m`.
    pub ftran_sparse_hits: usize,
    /// FTRANs that bailed to the dense kernel (result density above the
    /// cutoff, or the factorization kind has no sparse path).
    pub ftran_dense_fallbacks: usize,
    /// BTRANs answered on the hyper-sparse path (unit-RHS pivot rows).
    pub btran_sparse_hits: usize,
    /// BTRANs that bailed to the dense kernel.
    pub btran_dense_fallbacks: usize,
    /// Mean result density (pattern length / m) across all tracked
    /// FTRAN/BTRAN solves; dense fallbacks count as density 1.0. Reads 1.0
    /// when no solves were tracked (e.g. sparsity disabled).
    pub avg_result_density: f64,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            pricing: PricingRule::Dantzig,
            basis: BasisKind::ProductForm,
            iterations: 0,
            refactorizations: 0,
            forced_refactorizations: 0,
            degenerate_pivots: 0,
            dual_pivots: 0,
            ftran_sparse_hits: 0,
            ftran_dense_fallbacks: 0,
            btran_sparse_hits: 0,
            btran_dense_fallbacks: 0,
            avg_result_density: 1.0,
        }
    }
}

/// Result of a simplex solve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value in the problem's original sense (meaningful only when
    /// `status == Optimal` or `IterationLimit`).
    pub objective: f64,
    /// Primal values indexed by variable.
    pub x: Vec<f64>,
    /// Dual values indexed by constraint, in the convention that strong
    /// duality `Σ_i duals[i] · rhs[i] = objective` holds at optimality.
    pub duals: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
    /// Engine statistics for this solve.
    pub stats: SolveStats,
}

/// Solver options.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimplexOptions {
    /// Numerical tolerance for feasibility, pricing and pivoting decisions.
    pub tolerance: f64,
    /// Maximum number of pivots across both phases. `0` means automatic:
    /// `200 · (m + n_total) + 10_000`, recomputed from the problem actually
    /// being solved — so in column generation the budget grows with the
    /// restricted master's *current* column count rather than staying pinned
    /// at the seed LP's size.
    pub max_iterations: usize,
    /// After this many consecutive pivots without objective improvement the
    /// solver switches to Bland's rule to escape potential cycling.
    pub stall_threshold: usize,
    /// Rebuild the basis factorization after this many updates (numerical
    /// hygiene). `0` disables periodic refactorization (the factorization
    /// may still force one by declining an update). A Forrest–Tomlin
    /// rebuild costs `O(nnz(B))` plus the elimination work inside the
    /// basis's non-triangular bump (see [`crate::basis`]). The interval
    /// trades that cost, plus re-pricing the pricing rule's candidates
    /// fresh after each rebuild, against eta-file growth and drift.
    pub refactor_interval: usize,
    /// Pricing rule (entering-column choice).
    pub pricing: PricingRule,
    /// Basis factorization kind.
    pub basis: BasisKind,
    /// Route FTRAN/BTRAN through the hyper-sparse (Gilbert–Peierls) solves
    /// and keep pivot columns / pivot rows in sparse form through the ratio
    /// test and the pricing updates. `false` restores the dense kernels
    /// everywhere (the pre-sparsity behaviour; kept as an A/B lever for
    /// benches and as a numerical escape hatch).
    pub hyper_sparse: bool,
}

impl Default for SimplexOptions {
    /// The default engine is **data-driven**: steepest-edge pricing over
    /// the Forrest–Tomlin factorization won the multi-seed medians of the
    /// `engine_grid` measurement at every size from n = 200 up (n = 800:
    /// 70 ms vs 419 ms for `lu+dantzig`, the previous best; n = 2000:
    /// 0.57 s vs 6.6 s), by combining the fewest pivots (exact reference
    /// weights) with bounded-fill FTRAN/BTRAN.
    fn default() -> Self {
        SimplexOptions {
            tolerance: 1e-9,
            max_iterations: 0,
            stall_threshold: 64,
            refactor_interval: 256,
            pricing: PricingRule::SteepestEdge,
            basis: BasisKind::ForrestTomlin,
            hyper_sparse: true,
        }
    }
}

impl SimplexOptions {
    /// The PR 1 engine (Dantzig pricing over a dense product-form inverse):
    /// the comparison baseline in the `e13_lp_solver` bench grid.
    pub fn product_form_dantzig() -> Self {
        SimplexOptions {
            pricing: PricingRule::Dantzig,
            basis: BasisKind::ProductForm,
            ..Default::default()
        }
    }

    /// Returns a copy with the given engine selection.
    pub fn with_engine(mut self, pricing: PricingRule, basis: BasisKind) -> Self {
        self.pricing = pricing;
        self.basis = basis;
        self
    }

    /// Returns a copy with the hyper-sparse solve paths toggled.
    pub fn with_hyper_sparse(mut self, on: bool) -> Self {
        self.hyper_sparse = on;
        self
    }
}

/// Identity of a basis member, stable across re-solves of a problem whose
/// rows are fixed but whose column set grows (the restricted master of
/// column generation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BasisVar {
    /// Structural variable `j` of the [`LinearProgram`].
    Structural(usize),
    /// Slack of row `i` (a `≤` row after rhs normalization).
    Slack(usize),
    /// Surplus of row `i` (a `≥` row after rhs normalization).
    Surplus(usize),
    /// Artificial of row `i` (`≥` or `=` rows; basic only at value 0 after
    /// phase 1, or marking a redundant row).
    Artificial(usize),
}

/// Resumable solver state: the optimal basis of a previous solve together
/// with its factorization.
///
/// Valid for re-solves of an LP with the **same constraint rows** (same
/// relations and right-hand sides); the column set may have grown, because
/// new columns start nonbasic and therefore do not touch `B`. This is
/// exactly the restricted-master situation in column generation.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// One basis member per row.
    pub basis: Vec<BasisVar>,
    /// The factorization matching `basis` (moved in and out of the solver,
    /// never copied on the warm path).
    factor: Box<dyn BasisFactorization>,
}

impl WarmStart {
    /// Assembles a state from a basis and a matching factorization (used by
    /// [`crate::dual`], which maintains both itself).
    pub(crate) fn from_parts(basis: Vec<BasisVar>, factor: Box<dyn BasisFactorization>) -> Self {
        WarmStart { basis, factor }
    }

    /// Number of rows this state was built for.
    pub fn num_rows(&self) -> usize {
        self.basis.len()
    }

    /// Which basis representation the state carries.
    pub fn basis_kind(&self) -> BasisKind {
        self.factor.kind()
    }

    /// Keeps the basis but drops the factorization, forcing the next solve
    /// to refactorize from the *target problem's* columns.
    ///
    /// This is the sound way to seed a **different** problem (another
    /// channel's master, the next edge LP in a sweep): the basis identities
    /// carry over, but the stored `B⁻¹` was computed from the donor's
    /// constraint matrix and silently priced the new problem wrong when the
    /// matrices differ. Re-solving the *same* rows with grown columns (the
    /// restricted-master path) should keep the factorization and not call
    /// this.
    pub fn into_basis_only(self) -> WarmStart {
        WarmStart {
            factor: make_factorization(self.factor.kind()),
            basis: self.basis,
        }
    }
}

/// Solves a linear program with the sparse revised simplex method.
pub fn solve(lp: &LinearProgram, options: &SimplexOptions) -> LpSolution {
    solve_with_warm_start(lp, options, None).0
}

/// Solves a linear program, optionally resuming from the basis of a
/// previous solve over the same rows, and returns the solution together
/// with the final basis for future warm starts.
///
/// The state is taken **by value**: its factorization is moved into the
/// solver and moved back out, so a warm re-solve never copies it (at master
/// sizes of ~10³ rows those copies would dominate the handful of pivots a
/// warm re-solve actually needs). A warm start whose factorization kind
/// differs from [`SimplexOptions::basis`] is converted by one
/// refactorization from the basis columns.
pub fn solve_with_warm_start(
    lp: &LinearProgram,
    options: &SimplexOptions,
    warm: Option<WarmStart>,
) -> (LpSolution, WarmStart) {
    let mut solver = Revised::build(lp, options);
    let status = solver.run(warm);
    let solution = solver.extract(status);
    let state = solver.into_warm_start();
    (solution, state)
}

struct Revised<'a> {
    lp: &'a LinearProgram,
    tol: f64,
    max_iterations: usize,
    stall_threshold: usize,
    refactor_interval: usize,
    pricing_rule: PricingRule,
    basis_kind: BasisKind,

    m: usize,
    n: usize,
    n_total: usize,
    /// structural columns with row-normalization signs already applied
    cols: CscMatrix,
    /// per-row sign applied to normalize rhs ≥ 0
    row_sign: Vec<f64>,
    /// normalized rhs (≥ 0)
    b: Vec<f64>,
    /// layout of logical columns (index into the global column space)
    slack_col: Vec<Option<usize>>,
    surplus_col: Vec<Option<usize>>,
    art_col: Vec<Option<usize>>,
    /// inverse layout: what each global column is
    kind: Vec<BasisVar>,
    first_artificial: usize,
    /// maximization costs per global column (original objective)
    cost: Vec<f64>,
    /// per global column: may it enter a basis? `false` for structural
    /// variables fixed at zero ([`LinearProgram::fix_variables_at_zero`]);
    /// logical columns are always enterable. A fixed column arriving basic
    /// through a warm start may stay basic until it leaves naturally.
    enterable: Vec<bool>,

    /// basis member (global column index) per row
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// pluggable basis factorization
    factor: Box<dyn BasisFactorization>,
    /// current basic solution B⁻¹ b
    xb: Vec<f64>,

    /// hyper-sparse FTRAN/BTRAN + sparse ratio test enabled
    /// ([`SimplexOptions::hyper_sparse`])
    hyper_sparse: bool,
    /// Factorization sparsity counters at solve start (the factorization's
    /// counters are monotone over its lifetime, which for a warm-started
    /// solve began in a *previous* solve); [`Revised::extract`] reports the
    /// delta since this snapshot.
    sparsity_baseline: SparsityStats,

    iterations: usize,
    refactorizations: usize,
    forced_refactorizations: usize,
    degenerate_pivots: usize,
    /// Set when a mid-solve refactorization found the current basis
    /// numerically singular (the factorization is then empty, per the
    /// [`BasisFactorization::refactor`] contract). [`Revised::run`] answers
    /// with one cold restart — the collapse reflects numerical breakdown of
    /// the pivot path, not the LP.
    factor_failed: bool,
}

impl<'a> Revised<'a> {
    fn build(lp: &'a LinearProgram, options: &SimplexOptions) -> Self {
        let m = lp.num_constraints();
        let n = lp.num_variables();

        let mut row_sign = vec![1.0f64; m];
        let mut b = vec![0.0f64; m];
        let mut eff: Vec<Relation> = Vec::with_capacity(m);
        for (i, c) in lp.constraints().iter().enumerate() {
            let (rel, sign) = if c.rhs < 0.0 {
                let flipped = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (flipped, -1.0)
            } else {
                (c.relation, 1.0)
            };
            row_sign[i] = sign;
            b[i] = sign * c.rhs;
            eff.push(rel);
        }

        // Structural columns in CSC form with the row signs folded in.
        let mut cols = lp.to_csc();
        for (val, &row) in cols.values.iter_mut().zip(cols.row_idx.iter()) {
            *val *= row_sign[row];
        }

        // Logical column layout: slacks, then surpluses, then artificials —
        // the same index discipline as the dense solver, so Bland's rule
        // visits columns in the same order.
        let mut slack_col = vec![None; m];
        let mut surplus_col = vec![None; m];
        let mut art_col = vec![None; m];
        let mut kind: Vec<BasisVar> = (0..n).map(BasisVar::Structural).collect();
        let mut next = n;
        for (i, rel) in eff.iter().enumerate() {
            if matches!(rel, Relation::Le) {
                slack_col[i] = Some(next);
                kind.push(BasisVar::Slack(i));
                next += 1;
            }
        }
        for (i, rel) in eff.iter().enumerate() {
            if matches!(rel, Relation::Ge) {
                surplus_col[i] = Some(next);
                kind.push(BasisVar::Surplus(i));
                next += 1;
            }
        }
        let first_artificial = next;
        for (i, rel) in eff.iter().enumerate() {
            if matches!(rel, Relation::Ge | Relation::Eq) {
                art_col[i] = Some(next);
                kind.push(BasisVar::Artificial(i));
                next += 1;
            }
        }
        let n_total = next;

        let sense_sign = match lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut cost = vec![0.0f64; n_total];
        for (v, &c) in lp.objective().iter().enumerate() {
            cost[v] = sense_sign * c;
        }

        let mut enterable = vec![true; n_total];
        for (v, e) in enterable.iter_mut().enumerate().take(n) {
            *e = !lp.is_variable_fixed(v);
        }

        let max_iterations = if options.max_iterations == 0 {
            200 * (m + n_total) + 10_000
        } else {
            options.max_iterations
        };

        Revised {
            lp,
            tol: options.tolerance,
            max_iterations,
            stall_threshold: options.stall_threshold,
            refactor_interval: options.refactor_interval,
            pricing_rule: options.pricing,
            basis_kind: options.basis,
            m,
            n,
            n_total,
            cols,
            row_sign,
            b,
            slack_col,
            surplus_col,
            art_col,
            kind,
            first_artificial,
            cost,
            enterable,
            basis: Vec::new(),
            in_basis: vec![false; n_total],
            factor: make_factorization(options.basis),
            xb: Vec::new(),
            hyper_sparse: options.hyper_sparse,
            sparsity_baseline: SparsityStats::default(),
            iterations: 0,
            refactorizations: 0,
            forced_refactorizations: 0,
            degenerate_pivots: 0,
            factor_failed: false,
        }
    }

    /// Visits the sparse entries of global column `j` (signs applied).
    #[inline]
    fn for_each_entry(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        match self.kind[j] {
            BasisVar::Structural(v) => {
                let (rows, vals) = self.cols.column(v);
                for (&r, &a) in rows.iter().zip(vals.iter()) {
                    if a != 0.0 {
                        f(r, a);
                    }
                }
            }
            BasisVar::Slack(i) | BasisVar::Artificial(i) => f(i, 1.0),
            BasisVar::Surplus(i) => f(i, -1.0),
        }
    }

    /// Materializes global column `j` as a sparse `(row, value)` vector.
    fn sparse_column(&self, j: usize) -> SparseColumn {
        let mut col = SparseColumn::new();
        self.for_each_entry(j, |r, v| col.push((r, v)));
        col
    }

    /// Maps a stable basis identity to the current global column index.
    fn column_of(&self, var: BasisVar) -> Option<usize> {
        match var {
            BasisVar::Structural(j) => (j < self.n).then_some(j),
            BasisVar::Slack(i) => self.slack_col.get(i).copied().flatten(),
            BasisVar::Surplus(i) => self.surplus_col.get(i).copied().flatten(),
            BasisVar::Artificial(i) => self.art_col.get(i).copied().flatten(),
        }
    }

    /// Installs the cold-start identity basis (slack or artificial per row).
    fn cold_basis(&mut self) {
        self.basis = (0..self.m)
            .map(|i| {
                self.slack_col[i]
                    .or(self.art_col[i])
                    .expect("every row creates an identity column")
            })
            .collect();
        self.in_basis = vec![false; self.n_total];
        for &c in &self.basis {
            self.in_basis[c] = true;
        }
        // Identity-creating columns are exactly e_i, so B = I; factorizing
        // it is trivial for every representation.
        let ok = self.refactor();
        debug_assert!(ok, "the identity basis cannot be singular");
        self.xb = self.b.clone();
        // Installing the starting basis is not a hygiene event: the stats
        // counter covers only rebuilds *during* the solve, so cold and warm
        // solves of the same work read the same.
        self.refactorizations = 0;
        self.forced_refactorizations = 0;
    }

    /// Attempts to install a warm-start basis; returns `false` if the state
    /// does not fit this problem (the caller then cold-starts, overwriting
    /// any partial state installed here).
    fn try_warm_basis(&mut self, warm: WarmStart) -> bool {
        if warm.basis.len() != self.m {
            return false;
        }
        let mut basis = Vec::with_capacity(self.m);
        for &var in &warm.basis {
            match self.column_of(var) {
                Some(c) => basis.push(c),
                None => return false,
            }
        }
        let mut in_basis = vec![false; self.n_total];
        for &c in &basis {
            if in_basis[c] {
                return false; // duplicated member: corrupt state
            }
            in_basis[c] = true;
        }
        self.basis = basis;
        self.in_basis = in_basis;
        if warm.factor.num_rows() == self.m && warm.factor.kind() == self.basis_kind {
            // same engine: adopt the factorization without any rebuild. Its
            // sparsity counters carry history from the donor solve — re-anchor
            // the baseline so extract() reports only this solve's work.
            self.factor = warm.factor;
            self.sparsity_baseline = self.factor.sparsity_stats();
            self.xb = vec![0.0; self.m];
            let (factor, xb) = (&self.factor, &mut self.xb);
            factor.ftran_dense(&self.b, xb);
            // Validate the adopted factorization against *this* problem's
            // basis columns: a state recycled across different constraint
            // matrices (same shape, different coefficients) would price
            // every reduced cost against a stale B⁻¹ and can terminate
            // "optimal" at a wrong vertex. ‖B·x_B − b‖∞ is O(nnz) and
            // catches that; one refactorization repairs it.
            if self.residual_inf_norm() > 1e-6 && !self.refactor() {
                return false;
            }
        } else if !self.refactor() {
            // engine switched (or basis-only seed): one rebuild from the basis
            return false;
        }
        // The rows are supposed to be unchanged, so the previous basic
        // solution must still be (near-)feasible. If it is not — caller
        // reused state across incompatible problems, or drift built up —
        // refactorize once, then give up on the warm start.
        if self.min_xb() < -1e-7 && !(self.refactor() && self.min_xb() >= -1e-7) {
            return false;
        }
        for v in &mut self.xb {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        // A fixed column that arrived basic may only stay when that is
        // provably harmless (it consumes ≤-row slack only — the packing
        // shape). Otherwise reject the warm start: the cold start keeps
        // every fixed variable at exactly 0, so covering and minimization
        // shapes report the true fixed-at-zero optimum instead of letting
        // a zero-cost basic column satisfy `≥` rows for free. The value
        // does NOT matter: the `enterable` mask only bars *entering*, so
        // even a fixed column basic at 0 would be free to grow as later
        // pivots of other columns shift the basic solution — e.g. a
        // retired box-stabilization cap column (a −1 coefficient) silently
        // relaxing its row.
        for &c in self.basis.iter() {
            if let BasisVar::Structural(v) = self.kind[c] {
                if self.lp.is_variable_fixed(v) && !self.lp.fixed_value_is_harmless(v) {
                    return false;
                }
            }
        }
        // Adopting/converting the starting basis is install work, not a
        // hygiene rebuild (see cold_basis).
        self.refactorizations = 0;
        self.forced_refactorizations = 0;
        true
    }

    fn min_xb(&self) -> f64 {
        self.xb.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// `‖B·x_B − b‖∞` for the current basis and basic solution: a cheap
    /// consistency check that the factorization actually inverts this
    /// problem's basis matrix.
    fn residual_inf_norm(&self) -> f64 {
        let mut residual = self.b.clone();
        for (c, &col) in self.basis.iter().enumerate() {
            let xc = self.xb[c];
            if xc != 0.0 {
                self.for_each_entry(col, |r, v| residual[r] -= v * xc);
            }
        }
        residual.iter().fold(0.0f64, |acc, &r| acc.max(r.abs()))
    }

    /// Rebuilds the factorization from the basis columns and recomputes
    /// `x_B`. Returns `false` if the basis matrix is numerically singular.
    fn refactor(&mut self) -> bool {
        let cols: Vec<SparseColumn> = self.basis.iter().map(|&c| self.sparse_column(c)).collect();
        if !self.factor.refactor(self.m, &cols) {
            self.factor_failed = true;
            return false;
        }
        self.refactorizations += 1;
        if self.xb.len() != self.m {
            self.xb = vec![0.0; self.m];
        }
        let (factor, xb) = (&self.factor, &mut self.xb);
        factor.ftran_dense(&self.b, xb);
        true
    }

    /// FTRAN into a [`SparseVector`]: the hyper-sparse path when enabled
    /// (result indexed below the density cutoff), the dense kernel — with
    /// the counters bypassed — when sparsity is switched off.
    fn ftran_into(&self, j: usize, w: &mut SparseVector, scratch: &mut SparseColumn) {
        scratch.clear();
        self.for_each_entry(j, |r, v| scratch.push((r, v)));
        if self.hyper_sparse {
            self.factor.ftran_sparse_into(scratch, w);
        } else {
            w.begin_dense(self.m);
            self.factor.ftran_sparse(scratch, w.values_mut());
        }
    }

    /// BTRAN of unit vector `e_r` (the pivot row of `B⁻¹`) into a
    /// [`SparseVector`], mirroring [`Revised::ftran_into`]'s gating.
    fn btran_unit_into(&self, r: usize, rho: &mut SparseVector) {
        if self.hyper_sparse {
            self.factor.btran_unit_into(r, rho);
        } else {
            rho.begin_dense(self.m);
            self.factor.btran_unit(r, rho.values_mut());
        }
    }

    /// Reduced cost of column `j` at duals `y`.
    #[inline]
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut rc = cost[j];
        self.for_each_entry(j, |i, a| {
            rc -= y[i] * a;
        });
        rc
    }

    fn objective_of_basis(&self, cost: &[f64]) -> f64 {
        (0..self.m).map(|r| cost[self.basis[r]] * self.xb[r]).sum()
    }

    /// Recomputes the duals `y = c_B B⁻¹` from scratch (one full BTRAN).
    fn fresh_duals(&self, cost: &[f64], cb: &mut [f64], y: &mut [f64]) {
        for (r, c) in cb.iter_mut().enumerate() {
            *c = cost[self.basis[r]];
        }
        self.factor.btran(cb, y);
    }

    /// Applies the pivot (leaving row `l`, entering column `e`, direction
    /// `w = B⁻¹ a_e`) to the basic solution, the basis bookkeeping, and the
    /// factorization. Returns `false` only when the factorization declined
    /// the update *and* the recovery refactorization failed.
    fn pivot(&mut self, l: usize, e: usize, w: &SparseVector) -> bool {
        let wl = w.value(l);
        debug_assert!(wl.abs() > 1e-12, "pivot element too small");
        let theta = self.xb[l] / wl;
        let xb = &mut self.xb;
        w.for_each_nonzero(|r, a| {
            if r != l {
                let xr = &mut xb[r];
                *xr -= theta * a;
                if *xr < 0.0 && *xr > -1e-11 {
                    *xr = 0.0;
                }
            }
        });
        self.xb[l] = theta;

        self.in_basis[self.basis[l]] = false;
        self.in_basis[e] = true;
        self.basis[l] = e;

        if !self.factor.update_sparse(l, w) {
            // The representation declined (tiny pivot, full eta file, or an
            // unstable FT diagonal): rebuild from the already-updated basis
            // columns. This is a stability-forced rebuild, not hygiene.
            self.forced_refactorizations += 1;
            return self.refactor();
        }
        true
    }

    /// Runs simplex iterations with the given cost vector, entering filter
    /// and pricing rule. Returns `None` when optimal for this cost, or a
    /// terminal status.
    ///
    /// The duals `y = c_B B⁻¹` are maintained **incrementally** whenever the
    /// pivot row `ρ = e_l B⁻¹` is available (`y' = y + (rc_e / w_l)·ρ`, the
    /// textbook dual update): the pivot row is exactly the BTRAN that Devex
    /// pricing already pays for its weight update, so caching it for the
    /// dual update means a Devex pivot costs **one** BTRAN total instead of
    /// two (the extra-BTRAN gap the ROADMAP measured against Dantzig at
    /// n ≈ 200). Rules that skip the pivot row fall back to recomputing `y`
    /// from scratch each iteration, and optimality claimed under
    /// incrementally updated duals is always re-certified against freshly
    /// computed ones before being returned.
    fn iterate(
        &mut self,
        cost: &[f64],
        allow_enter: impl Fn(usize) -> bool,
        pricer: &mut dyn Pricing,
    ) -> Option<LpStatus> {
        let m = self.m;
        let mut y = vec![0.0f64; m];
        let mut cb = vec![0.0f64; m];
        let mut w = SparseVector::zeros(m);
        let mut rho_buf = SparseVector::zeros(m);
        let mut col_scratch = SparseColumn::new();
        let mut stall = 0usize;
        // The stall counter watches the objective, tracked in O(1) per pivot
        // by adding each pivot's gain rc_e·θ and re-based on an exact c_B·x_B
        // whenever the factors were rebuilt (which also recomputes x_B).
        let mut obj = self.objective_of_basis(cost);
        let mut last_obj = obj;
        let mut refactors_seen = self.refactorizations;
        // `y_valid`: y holds (possibly incrementally updated) duals for the
        // current basis. `y_fresh`: y was recomputed by a full BTRAN for the
        // current basis, so an empty pricing scan is a proof of optimality.
        let mut y_valid = false;
        let mut y_fresh = false;
        loop {
            if self.iterations >= self.max_iterations {
                return Some(LpStatus::IterationLimit);
            }
            if self.refactor_interval > 0
                && self.factor.updates_since_refactor() >= self.refactor_interval
            {
                // Debug builds verify the update path against the rebuild it
                // is about to be replaced by: the pivot-updated factors and
                // a from-scratch refactorization must produce the same
                // basic solution (catches FT/eta algebra drift at the site
                // where it would otherwise be silently erased).
                #[cfg(debug_assertions)]
                let xb_updated: Vec<f64> = {
                    let mut v = vec![0.0f64; m];
                    self.factor.ftran_dense(&self.b, &mut v);
                    v
                };
                if !self.refactor() {
                    // A singular rebuild means the factorization had drifted
                    // beyond repair; continuing would price against garbage.
                    return Some(LpStatus::IterationLimit);
                }
                #[cfg(debug_assertions)]
                {
                    let scale = 1.0 + self.xb.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
                    for (r, (&upd, &fresh)) in xb_updated.iter().zip(self.xb.iter()).enumerate() {
                        debug_assert!(
                            (upd - fresh).abs() <= 1e-4 * scale,
                            "updated factors disagree with fresh refactor at row {r}: \
                             {upd} vs {fresh}"
                        );
                    }
                }
                // the rebuild resets accumulated drift; so should the duals
                y_valid = false;
                // steepest edge resets its candidate weights to exact norms
                // against the fresh factors (one sparse FTRAN per candidate)
                {
                    let this = &*self;
                    let scratch =
                        std::cell::RefCell::new((SparseVector::zeros(m), SparseColumn::new()));
                    let exact = |j: usize| -> f64 {
                        let (w, cs) = &mut *scratch.borrow_mut();
                        this.ftran_into(j, w, cs);
                        let mut s = 0.0;
                        w.for_each_nonzero(|_, v| s += v * v);
                        s
                    };
                    pricer.notify_refactor(&exact);
                }
            }

            if !y_valid {
                self.fresh_duals(cost, &mut cb, &mut y);
                y_valid = true;
                y_fresh = true;
            }
            let rebuilt = self.refactorizations != refactors_seen;
            if rebuilt {
                refactors_seen = self.refactorizations;
                obj = self.objective_of_basis(cost);
            }
            if rebuilt || y_fresh {
                // reduced costs carried under the old duals are stale
                pricer.notify_duals_reset();
            }

            let use_bland = stall >= self.stall_threshold;
            let select = |this: &Self, y: &[f64], pricer: &mut dyn Pricing| -> Option<usize> {
                let rc = |j: usize| this.reduced_cost(cost, y, j);
                let eligible = |j: usize| !this.in_basis[j] && allow_enter(j);
                if use_bland {
                    // Anti-cycling override: Bland's rule regardless of the
                    // configured pricing (guaranteed to terminate).
                    (0..this.n_total).find(|&j| eligible(j) && rc(j) > this.tol)
                } else {
                    pricer.select_entering(this.n_total, this.tol, &eligible, &rc)
                }
            };
            let e = match select(self, &y, pricer) {
                Some(e) => e,
                None if y_fresh => return None,
                None => {
                    // Optimality under incrementally updated duals is only a
                    // candidate: recompute y exactly and ask again.
                    self.fresh_duals(cost, &mut cb, &mut y);
                    y_fresh = true;
                    pricer.notify_duals_reset();
                    select(self, &y, pricer)?
                }
            };
            // reduced cost of the entering column under the current duals,
            // needed for the incremental dual update after the pivot
            let rc_e = self.reduced_cost(cost, &y, e);

            self.ftran_into(e, &mut w, &mut col_scratch);
            // the FTRAN image is in hand: its squared norm is the exact
            // steepest-edge weight of the entering column, free of charge
            let mut w_norm_sq = 0.0f64;
            w.for_each_nonzero(|_, v| w_norm_sq += v * v);
            pricer.observe_entering(e, w_norm_sq);

            // Ratio test over the pivot column's support only. The default
            // is a two-pass Harris test: pass 1 finds the *relaxed* minimum
            // ratio (each basic value granted `feas` of slack), pass 2 picks
            // the largest-magnitude pivot element whose ratio stays within
            // that bound — trading a harmless O(feas) primal infeasibility
            // for a far better-conditioned pivot on degenerate LPs, where
            // the textbook rule is forced onto whichever tiny pivot attains
            // the exact minimum. Under the Bland override the textbook
            // smallest-ratio / smallest-index rule is kept (the termination
            // guarantee needs it).
            let mut leaving: Option<usize> = None;
            let mut col_max = 0.0f64;
            if use_bland {
                let mut best_ratio = f64::INFINITY;
                w.for_each_nonzero(|r, a| {
                    if a > self.tol {
                        let ratio = self.xb[r] / a;
                        let better = ratio < best_ratio - self.tol
                            || (ratio < best_ratio + self.tol
                                && leaving
                                    .map(|l| self.basis[r] < self.basis[l])
                                    .unwrap_or(true));
                        if better {
                            best_ratio = ratio;
                            leaving = Some(r);
                        }
                    }
                });
            } else {
                let feas = self.tol.max(1e-9);
                let mut theta_max = f64::INFINITY;
                w.for_each_nonzero(|r, a| {
                    if a > self.tol {
                        col_max = col_max.max(a);
                        let bound = (self.xb[r].max(0.0) + feas) / a;
                        if bound < theta_max {
                            theta_max = bound;
                        }
                    }
                });
                if theta_max.is_finite() {
                    let mut best_piv = 0.0f64;
                    w.for_each_nonzero(|r, a| {
                        if a > self.tol && self.xb[r].max(0.0) / a <= theta_max {
                            let better = a > best_piv
                                || (a == best_piv
                                    && leaving
                                        .map(|l| self.basis[r] < self.basis[l])
                                        .unwrap_or(true));
                            if better {
                                best_piv = a;
                                leaving = Some(r);
                            }
                        }
                    });
                }
            }
            let Some(l) = leaving else {
                if !y_fresh {
                    // The entering column was priced under incrementally
                    // updated duals; like the optimality exit, an unbounded
                    // verdict must not rest on drifted reduced costs.
                    // Recompute y and re-price from scratch.
                    self.fresh_duals(cost, &mut cb, &mut y);
                    y_fresh = true;
                    continue;
                }
                return Some(LpStatus::Unbounded);
            };

            // Harris pivot floor: an absolutely tiny pivot always forces a
            // rebuild-and-retry; a pivot that is merely tiny *relative* to
            // the column's largest eligible element (< 1e-7·col_max) is
            // treated as a drift signal and triggers an early
            // refactorization — but only while there are accumulated updates
            // for the rebuild to undo, so a floor violation against fresh
            // factors is accepted rather than looped on. Both are
            // stability-forced, not hygiene.
            let wl_abs = w.value(l).abs();
            let pivot_floor = (1e-7 * col_max).max(1e-12);
            if wl_abs <= 1e-12 || (wl_abs < pivot_floor && self.factor.updates_since_refactor() > 0)
            {
                self.forced_refactorizations += 1;
                if !self.refactor() {
                    return Some(LpStatus::IterationLimit);
                }
                continue;
            }

            if self.xb[l] <= self.tol {
                self.degenerate_pivots += 1;
            }

            // Devex needs the pivot row of the *outgoing* basis; compute it
            // before the factorization is updated, and only when asked.
            let rho_valid = pricer.wants_pivot_row();
            if rho_valid {
                self.btran_unit_into(l, &mut rho_buf);
            }
            let leaving_col = self.basis[l];
            let wl = w.value(l);
            let theta = self.xb[l] / wl;

            if !self.pivot(l, e, &w) {
                return Some(LpStatus::IterationLimit);
            }
            self.iterations += 1;

            {
                let rho = &rho_buf;
                let alpha = |j: usize| -> f64 {
                    if !rho_valid {
                        return 0.0;
                    }
                    let mut a = 0.0;
                    self.for_each_entry(j, |i, v| a += rho.value(i) * v);
                    a
                };
                pricer.notify_pivot(e, leaving_col, wl, &alpha);
            }

            if rho_valid {
                // The pivot row was already paid for (Devex weight update):
                // reuse it for the textbook dual update
                // `y' = y + (rc_e / w_l)·ρ` instead of a fresh BTRAN next
                // iteration — over ρ's support only. The update is exact in
                // exact arithmetic; drift is bounded by the refactor-interval
                // reset and the fresh re-certification before any optimality
                // claim.
                let theta_d = rc_e / wl;
                rho_buf.for_each_nonzero(|i, ri| y[i] += theta_d * ri);
                y_fresh = false;
            } else {
                y_valid = false;
            }

            obj += rc_e * theta;
            if obj > last_obj + self.tol {
                stall = 0;
            } else {
                stall += 1;
            }
            last_obj = obj;
        }
    }

    /// Drives phase-1 artificials out of the basis where possible. Returns
    /// `false` only on an unrecoverable factorization failure.
    fn drive_out_artificials(&mut self) -> bool {
        let m = self.m;
        let mut w = SparseVector::zeros(m);
        let mut rho = vec![0.0f64; m];
        let mut col_scratch = SparseColumn::new();
        #[allow(clippy::needless_range_loop)] // r indexes basis, rho and w
        for r in 0..m {
            if !matches!(self.kind[self.basis[r]], BasisVar::Artificial(_)) {
                continue;
            }
            // Find a non-artificial, nonbasic column whose FTRAN has a
            // non-zero pivot element in row r. The pivot element alone is
            // (row r of B⁻¹) · a_j — one BTRAN-unit, then O(nnz) per
            // candidate.
            self.factor.btran_unit(r, &mut rho);
            let mut target = None;
            for j in 0..self.first_artificial {
                if self.in_basis[j] || !self.enterable[j] {
                    continue;
                }
                let mut alpha = 0.0;
                self.for_each_entry(j, |i, a| {
                    alpha += rho[i] * a;
                });
                if alpha.abs() > self.tol {
                    target = Some(j);
                    break;
                }
            }
            if let Some(j) = target {
                self.ftran_into(j, &mut w, &mut col_scratch);
                if w.value(r).abs() > 1e-12 && !self.pivot(r, j, &w) {
                    return false;
                }
            }
            // Otherwise the row is redundant: the artificial stays basic at
            // value 0 and is barred from re-entering in phase 2.
        }
        true
    }

    /// Seeds exact steepest-edge weights for an identity starting basis:
    /// `B = I` makes `‖B⁻¹a_j‖² = ‖a_j‖²`, a pure column scan (no solves).
    fn seed_identity_weights(&self, pricer: &mut dyn Pricing) {
        let norm_sq = |j: usize| -> f64 {
            let mut s = 0.0;
            self.for_each_entry(j, |_, v| s += v * v);
            s
        };
        pricer.seed_reference_weights(self.n_total, &norm_sq);
    }

    fn run(&mut self, warm: Option<WarmStart>) -> LpStatus {
        let mut pricer = make_pricing(self.pricing_rule);
        let status = self.run_attempt(warm, pricer.as_mut());
        if !self.factor_failed {
            return status;
        }
        // The factorization collapsed mid-solve: a refactorization found the
        // current basis numerically singular. Pivots are selected against
        // the *factorized* (drifted) basis, and a run of tiny-pivot steps —
        // degenerate masters with near-duplicate columns do this at depth —
        // can walk the true basis singular while every per-pivot guard
        // passes. The status in hand reflects that breakdown, not the LP:
        // restart once from the cold slack basis with fresh numerics (the
        // restarted path re-prices every column and does not revisit the
        // collapsed basis). Counters accumulate across both attempts — the
        // discarded pivots were real work.
        self.factor_failed = false;
        let (prior_refactors, prior_forced) = (self.refactorizations, self.forced_refactorizations);
        let status = self.run_attempt(None, pricer.as_mut());
        self.refactorizations += prior_refactors;
        self.forced_refactorizations += prior_forced;
        status
    }

    /// One solve attempt with `pricer` (reset at the start of each phase).
    fn run_attempt(&mut self, warm: Option<WarmStart>, pricer: &mut dyn Pricing) -> LpStatus {
        let warm_ok = match warm {
            Some(state) => self.try_warm_basis(state),
            None => false,
        };
        // true while the installed basis is still the cold identity (slack /
        // artificial per row) — the only state where exact steepest-edge
        // weights are free to seed
        let mut basis_is_identity = false;
        if !warm_ok {
            self.cold_basis();
            basis_is_identity = true;
            let has_artificials = self.first_artificial < self.n_total;
            let needs_phase1 = has_artificials
                && self
                    .basis
                    .iter()
                    .any(|&c| matches!(self.kind[c], BasisVar::Artificial(_)));
            if needs_phase1 {
                let mut phase1_cost = vec![0.0f64; self.n_total];
                for c in phase1_cost[self.first_artificial..].iter_mut() {
                    *c = -1.0;
                }
                let enterable = self.enterable.clone();
                pricer.reset(self.n_total);
                self.seed_identity_weights(pricer);
                basis_is_identity = false; // phase 1 moves the basis off I
                if let Some(status) = self.iterate(&phase1_cost, |j| enterable[j], pricer) {
                    // Phase 1 is bounded by 0, so this is an iteration limit.
                    return status;
                }
                let infeasibility = -self.objective_of_basis(&phase1_cost);
                if infeasibility > 1e-6 {
                    return LpStatus::Infeasible;
                }
                if !self.drive_out_artificials() {
                    return LpStatus::IterationLimit;
                }
            }
        }

        // Phase 2 with the original costs; artificials may not (re-)enter,
        // and neither may fixed columns.
        let cost = self.cost.clone();
        let first_artificial = self.first_artificial;
        let enterable = self.enterable.clone();
        pricer.reset(self.n_total);
        if basis_is_identity {
            // packing LPs start phase 2 directly at the slack basis
            self.seed_identity_weights(pricer);
        }
        match self.iterate(&cost, |j| j < first_artificial && enterable[j], pricer) {
            None => LpStatus::Optimal,
            Some(s) => s,
        }
    }

    fn extract(&self, status: LpStatus) -> LpSolution {
        let mut x = vec![0.0f64; self.n];
        for (r, &c) in self.basis.iter().enumerate() {
            if let BasisVar::Structural(j) = self.kind[c] {
                x[j] = self.xb[r].max(0.0);
            }
        }
        let sense_sign = match self.lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        // y = c_B B⁻¹ with the original maximization costs, then undo the
        // row normalization signs and the sense flip.
        let cb: Vec<f64> = (0..self.m).map(|r| self.cost[self.basis[r]]).collect();
        let mut y = vec![0.0f64; self.m];
        self.factor.btran(&cb, &mut y);
        let duals: Vec<f64> = (0..self.m)
            .map(|i| sense_sign * self.row_sign[i] * y[i])
            .collect();
        let objective = self.lp.objective_value(&x);
        let sp = self
            .factor
            .sparsity_stats()
            .delta_since(self.sparsity_baseline);
        LpSolution {
            status,
            objective,
            x,
            duals,
            iterations: self.iterations,
            stats: SolveStats {
                pricing: self.pricing_rule,
                basis: self.basis_kind,
                iterations: self.iterations,
                refactorizations: self.refactorizations,
                forced_refactorizations: self.forced_refactorizations,
                degenerate_pivots: self.degenerate_pivots,
                dual_pivots: 0,
                ftran_sparse_hits: sp.ftran_sparse as usize,
                ftran_dense_fallbacks: sp.ftran_dense as usize,
                btran_sparse_hits: sp.btran_sparse as usize,
                btran_dense_fallbacks: sp.btran_dense as usize,
                avg_result_density: sp.avg_density(),
            },
        }
    }

    fn into_warm_start(self) -> WarmStart {
        WarmStart {
            basis: self.basis.iter().map(|&c| self.kind[c]).collect(),
            factor: self.factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::problem::{LinearProgram, Relation, Sense};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every pricing × basis combination of the engine.
    pub(crate) fn all_engines() -> Vec<SimplexOptions> {
        let mut out = Vec::new();
        for pricing in [
            PricingRule::Dantzig,
            PricingRule::Bland,
            PricingRule::Devex,
            PricingRule::SteepestEdge,
        ] {
            for basis in [
                BasisKind::ProductForm,
                BasisKind::SparseLu,
                BasisKind::ForrestTomlin,
            ] {
                out.push(SimplexOptions::default().with_engine(pricing, basis));
            }
        }
        out
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn simple_packing_lp() {
        // max 3x + 2y  s.t. x + y <= 4, x <= 2, y <= 3
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 10.0, 1e-7); // x=2, y=2
            assert_close(sol.x[x], 2.0, 1e-7);
            assert_close(sol.x[y], 2.0, 1e-7);
            assert!(lp.is_feasible(&sol.x, 1e-7));
            // strong duality
            let dual_obj: f64 = sol.duals[0] * 4.0 + sol.duals[1] * 2.0 + sol.duals[2] * 3.0;
            assert_close(dual_obj, 10.0, 1e-7);
            // duals of <= constraints in a maximization are non-negative
            assert!(sol.duals.iter().all(|&d| d >= -1e-9));
            // stats label the engine that actually ran
            assert_eq!(sol.stats.pricing, options.pricing);
            assert_eq!(sol.stats.basis, options.basis);
            assert_eq!(sol.stats.iterations, sol.iterations);
        }
    }

    #[test]
    fn degenerate_clique_lp() {
        // The edge-based independent-set LP on a triangle: max x0+x1+x2 with
        // pairwise sums <= 1. Optimum 1.5 (all at 1/2) — the integrality-gap
        // example from Section 2.1.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let v: Vec<usize> = (0..3).map(|_| lp.add_variable(1.0)).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                lp.add_constraint(vec![(v[i], 1.0), (v[j], 1.0)], Relation::Le, 1.0);
            }
        }
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 1.5, 1e-7);
        }
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y  s.t. x + y >= 4, x >= 1 -> x=4, y=0, objective 8.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(2.0);
        let y = lp.add_variable(3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 8.0, 1e-7);
            assert_close(sol.x[x], 4.0, 1e-7);
            assert_close(sol.x[y], 0.0, 1e-7);
            // strong duality for the minimization
            let dual_obj: f64 = sol.duals[0] * 4.0 + sol.duals[1] * 1.0;
            assert_close(dual_obj, 8.0, 1e-6);
        }
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 3, y <= 2 -> x=1, y=2, objective 5
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 2.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 5.0, 1e-7);
            assert_close(sol.x[x], 1.0, 1e-7);
            assert_close(sol.x[y], 2.0, 1e-7);
        }
    }

    #[test]
    fn infeasible_problem_detected() {
        // x <= 1 and x >= 2 simultaneously
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Infeasible);
        }
    }

    #[test]
    fn unbounded_problem_detected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(0.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 5.0);
        let _ = x;
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Unbounded);
        }
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x <= -2  ===  x >= 2; minimize x -> 2
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, -2.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 2.0, 1e-7);
        }
    }

    #[test]
    fn zero_constraint_problem() {
        // no constraints, maximize 0 over x >= 0: optimal 0
        let mut lp = LinearProgram::new(Sense::Maximize);
        lp.add_variable(0.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 0.0, 1e-9);
        }
    }

    #[test]
    fn duals_price_binding_constraints_only() {
        // max x + y s.t. x <= 1, y <= 1, x + y <= 5 (slack constraint)
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        for options in all_engines() {
            let sol = solve(&lp, &options);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.duals[0], 1.0, 1e-7);
            assert_close(sol.duals[1], 1.0, 1e-7);
            assert_close(sol.duals[2], 0.0, 1e-7);
        }
    }

    #[test]
    fn warm_start_resumes_without_pivots() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        for options in all_engines() {
            let (first, state) = solve_with_warm_start(&lp, &options, None);
            assert_eq!(first.status, LpStatus::Optimal);
            assert!(first.iterations > 0);
            assert_eq!(state.basis_kind(), options.basis);
            // Re-solving the unchanged LP from the optimal basis needs 0 pivots.
            let (second, _) = solve_with_warm_start(&lp, &options, Some(state));
            assert_eq!(second.status, LpStatus::Optimal);
            assert_eq!(second.iterations, 0);
            assert_close(second.objective, first.objective, 1e-9);
        }
    }

    #[test]
    fn warm_start_after_adding_a_column() {
        // Solve, then add a new structural variable (as column generation
        // does) and resume: the old basis stays valid, the new column enters.
        for options in all_engines() {
            let mut lp = LinearProgram::new(Sense::Maximize);
            let x = lp.add_variable(1.0);
            lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
            let (first, state) = solve_with_warm_start(&lp, &options, None);
            assert_close(first.objective, 2.0, 1e-9);

            let mut grown = LinearProgram::new(Sense::Maximize);
            let x2 = grown.add_variable(1.0);
            let z = grown.add_variable(5.0);
            grown.add_constraint(vec![(x2, 1.0), (z, 1.0)], Relation::Le, 2.0);
            let (second, _) = solve_with_warm_start(&grown, &options, Some(state));
            assert_eq!(second.status, LpStatus::Optimal);
            assert_close(second.objective, 10.0, 1e-9);
            assert_close(second.x[z], 2.0, 1e-9);
        }
    }

    #[test]
    fn warm_start_across_engine_kinds_is_converted() {
        // A warm start produced by one basis representation resumes under
        // the other via a single refactorization.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let pf =
            SimplexOptions::default().with_engine(PricingRule::Dantzig, BasisKind::ProductForm);
        let lu = SimplexOptions::default().with_engine(PricingRule::Devex, BasisKind::SparseLu);
        let (first, state) = solve_with_warm_start(&lp, &pf, None);
        assert_eq!(first.status, LpStatus::Optimal);
        assert_eq!(state.basis_kind(), BasisKind::ProductForm);
        let (second, state2) = solve_with_warm_start(&lp, &lu, Some(state));
        assert_eq!(second.status, LpStatus::Optimal);
        assert_eq!(
            second.iterations, 0,
            "optimal basis needs no pivots after conversion"
        );
        assert_close(second.objective, first.objective, 1e-9);
        assert_eq!(state2.basis_kind(), BasisKind::SparseLu);
    }

    #[test]
    fn warm_start_across_different_matrices_is_repaired() {
        // Two LPs with identical rows (same count, relations, rhs) but
        // different coefficient patterns: adopting the first solve's
        // factorization verbatim would price the second LP against a stale
        // B⁻¹ and could terminate "optimal" at a wrong vertex. The
        // residual check must detect the mismatch, refactorize, and still
        // reach the true optimum.
        for options in all_engines() {
            let mut a = LinearProgram::new(Sense::Maximize);
            let ax = a.add_variable(1.0);
            let ay = a.add_variable(1.0);
            a.add_constraint(vec![(ax, 1.0)], Relation::Le, 1.0);
            a.add_constraint(vec![(ay, 1.0)], Relation::Le, 1.0);
            let (first, state) = solve_with_warm_start(&a, &options, None);
            assert_eq!(first.status, LpStatus::Optimal);

            let mut b = LinearProgram::new(Sense::Maximize);
            let bx = b.add_variable(4.0);
            let by = b.add_variable(2.0);
            b.add_constraint(vec![(by, 1.0)], Relation::Le, 1.0);
            b.add_constraint(vec![(bx, 1.0), (by, 1.0)], Relation::Le, 1.0);
            let cold = solve(&b, &options);
            let (warmed, _) = solve_with_warm_start(&b, &options, Some(state));
            assert_eq!(warmed.status, LpStatus::Optimal);
            assert_close(warmed.objective, cold.objective, 1e-7);
            assert!(b.is_feasible(&warmed.x, 1e-7));
        }
    }

    #[test]
    fn mismatched_warm_start_falls_back_to_cold() {
        let mut a = LinearProgram::new(Sense::Maximize);
        let x = a.add_variable(1.0);
        a.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        for options in all_engines() {
            let (_, state) = solve_with_warm_start(&a, &options, None);

            // different row count: the state must be rejected, not trusted
            let mut b = LinearProgram::new(Sense::Maximize);
            let u = b.add_variable(1.0);
            b.add_constraint(vec![(u, 1.0)], Relation::Le, 1.0);
            b.add_constraint(vec![(u, 1.0)], Relation::Le, 3.0);
            let (sol, _) = solve_with_warm_start(&b, &options, Some(state));
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, 1.0, 1e-9);
        }
    }

    /// Fixing a column that is basic in a **covering** (minimize / `≥`) LP
    /// must not let its lingering value satisfy the rows for free: the
    /// warm-start screen rejects the basis and the cold start reports the
    /// true fixed-at-zero optimum (the review repro for the unsound case).
    #[test]
    fn fixed_basic_columns_are_evicted_on_covering_lps() {
        for options in all_engines() {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x1 = lp.add_variable(1.0);
            let x2 = lp.add_variable(2.0);
            lp.add_constraint(vec![(x1, 1.0), (x2, 1.0)], Relation::Ge, 1.0);
            let (first, state) = solve_with_warm_start(&lp, &options, None);
            assert_eq!(first.status, LpStatus::Optimal);
            assert_close(first.objective, 1.0, 1e-7); // x1 = 1 basic

            lp.fix_variables_at_zero(&[x1]);
            let (fixed, _) = solve_with_warm_start(&lp, &options, Some(state));
            assert_eq!(fixed.status, LpStatus::Optimal);
            assert_close(fixed.objective, 2.0, 1e-7); // x2 = 1, not x1 for free
            assert_close(fixed.x[x1], 0.0, 1e-9);
        }
    }

    /// Deterministic seeded random packing LP used by the
    /// engine-vs-dense equivalence tests.
    fn random_packing_lp(seed: u64, n: usize, m: usize) -> LinearProgram {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new(Sense::Maximize);
        for _ in 0..n {
            lp.add_variable(rng.random_range(0.0..10.0));
        }
        for _ in 0..m {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.random_range(0.0..1.0) < 0.6 {
                    coeffs.push((j, rng.random_range(0.1..5.0)));
                }
            }
            lp.add_constraint(coeffs, Relation::Le, rng.random_range(1.0..20.0));
        }
        lp
    }

    #[test]
    fn all_engines_match_dense_on_seeded_packing_lps() {
        for seed in 0..20u64 {
            let n = 1 + (seed as usize % 12);
            let m = 1 + ((seed as usize * 7) % 10);
            let lp = random_packing_lp(seed, n, m);
            let reference = dense::solve(&lp, &SimplexOptions::default());
            for options in all_engines() {
                let revised = solve(&lp, &options);
                let label = format!(
                    "seed {seed} engine {}x{}",
                    options.pricing.name(),
                    options.basis.name()
                );
                assert_eq!(revised.status, reference.status, "{label}");
                if revised.status == LpStatus::Optimal {
                    assert!(
                        (revised.objective - reference.objective).abs() < 1e-6,
                        "{label}: revised {} vs dense {}",
                        revised.objective,
                        reference.objective
                    );
                    assert!(lp.is_feasible(&revised.x, 1e-6));
                    // The optimal basis (and hence the duals) need not be
                    // unique, but both dual vectors must price the rhs to
                    // the optimum.
                    let price = |duals: &[f64]| -> f64 {
                        lp.constraints()
                            .iter()
                            .zip(duals.iter())
                            .map(|(c, &y)| c.rhs * y)
                            .sum()
                    };
                    assert!(
                        (price(&revised.duals) - price(&reference.duals)).abs() < 1e-6,
                        "{label}: dual objectives differ"
                    );
                }
            }
        }
    }

    #[test]
    fn all_engines_agree_on_degenerate_and_rank_deficient_lps() {
        // Degenerate: many redundant copies of the same binding row;
        // rank-deficient: an equality row repeated verbatim (phase 1 leaves
        // a zero-valued artificial basic for the redundant copy). Every
        // engine must terminate (Bland fallback) and agree with the oracle.
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let n = 2 + (seed as usize % 4);
            let mut lp = LinearProgram::new(Sense::Maximize);
            for _ in 0..n {
                lp.add_variable(rng.random_range(0.5..5.0));
            }
            let coeffs: Vec<(usize, f64)> =
                (0..n).map(|j| (j, rng.random_range(0.5..2.0))).collect();
            let rhs = rng.random_range(1.0..4.0);
            // the same packing row three times (degeneracy)
            for _ in 0..3 {
                lp.add_constraint(coeffs.clone(), Relation::Le, rhs);
            }
            // a repeated equality row (rank deficiency)
            let eq: Vec<(usize, f64)> = vec![(0, 1.0)];
            let eq_rhs = rhs / 2.0;
            lp.add_constraint(eq.clone(), Relation::Eq, eq_rhs);
            lp.add_constraint(eq, Relation::Eq, eq_rhs);
            for j in 0..n {
                lp.add_constraint(vec![(j, 1.0)], Relation::Le, 3.0);
            }
            let reference = dense::solve(&lp, &SimplexOptions::default());
            for options in all_engines() {
                let sol = solve(&lp, &options);
                let label = format!(
                    "seed {seed} engine {}x{}",
                    options.pricing.name(),
                    options.basis.name()
                );
                assert_eq!(sol.status, reference.status, "{label}");
                if sol.status == LpStatus::Optimal {
                    assert!(lp.is_feasible(&sol.x, 1e-6), "{label}");
                    assert!(
                        (sol.objective - reference.objective).abs() < 1e-6,
                        "{label}: {} vs dense {}",
                        sol.objective,
                        reference.objective
                    );
                }
            }
        }
    }

    /// Degenerate triangle-clique LP with a duplicated packing row and a
    /// repeated equality row (rank deficiency): the stress shape for the
    /// sparse-kernel equivalence tests.
    fn degenerate_duplicated_lp() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        for _ in 0..3 {
            lp.add_variable(1.0);
        }
        for a in 0..3 {
            for b in (a + 1)..3 {
                lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 1.0);
            }
        }
        // a duplicated row and a repeated equality (phase 1 leaves a
        // zero-valued artificial basic for the redundant copy)
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        lp.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        lp
    }

    /// Steepest edge with its carried reduced costs audited against the
    /// core's `rc(j)` at every select, and its cache drops checked after
    /// every refactor and every pivot it did not choose.
    #[derive(Debug, Default)]
    struct AuditedSteepestEdge {
        inner: crate::pricing::SteepestEdgePricing,
        /// `|d_j − rc(j)|` may reach `1e-9 · scale`.
        scale: f64,
        last_pick: Option<usize>,
        audited: usize,
        chosen_pivots: usize,
        other_pivots: usize,
        refactors: usize,
    }

    impl Pricing for AuditedSteepestEdge {
        fn reset(&mut self, n_total: usize) {
            self.inner.reset(n_total);
        }

        fn select_entering(
            &mut self,
            n_total: usize,
            tol: f64,
            eligible: &dyn Fn(usize) -> bool,
            rc: &dyn Fn(usize) -> f64,
        ) -> Option<usize> {
            for (j, d) in self.inner.carried_reduced_costs().unwrap_or_default() {
                let fresh = rc(j);
                assert!(
                    (d - fresh).abs() <= 1e-9 * self.scale,
                    "carried d_{j} = {d} but rc = {fresh}"
                );
                self.audited += 1;
            }
            let pick = self.inner.select_entering(n_total, tol, eligible, rc);
            if let Some(j) = pick {
                assert!(rc(j) > tol, "column {j} entered with rc {}", rc(j));
            }
            self.last_pick = pick;
            pick
        }

        fn wants_pivot_row(&self) -> bool {
            self.inner.wants_pivot_row()
        }

        fn notify_pivot(&mut self, e: usize, l: usize, alpha_e: f64, alpha: &dyn Fn(usize) -> f64) {
            self.inner.notify_pivot(e, l, alpha_e, alpha);
            if self.last_pick.take() == Some(e) {
                self.chosen_pivots += 1;
            } else {
                assert!(
                    self.inner.carried_reduced_costs().is_none(),
                    "a pivot the rule did not choose kept the cache"
                );
                self.other_pivots += 1;
            }
        }

        fn seed_reference_weights(&mut self, n_total: usize, norm_sq: &dyn Fn(usize) -> f64) {
            self.inner.seed_reference_weights(n_total, norm_sq);
        }

        fn observe_entering(&mut self, entering: usize, norm_sq: f64) {
            self.inner.observe_entering(entering, norm_sq);
        }

        fn notify_duals_reset(&mut self) {
            self.inner.notify_duals_reset();
        }

        fn notify_refactor(&mut self, norm_sq: &dyn Fn(usize) -> f64) {
            self.inner.notify_refactor(norm_sq);
            assert!(
                self.inner.carried_reduced_costs().is_none(),
                "refactor kept the cache"
            );
            self.refactors += 1;
        }
    }

    /// Solves `lp` through [`AuditedSteepestEdge`], checks the optimum
    /// against the dense oracle and returns the audit.
    fn audited_solve(lp: &LinearProgram, options: &SimplexOptions) -> AuditedSteepestEdge {
        let scale = 1.0
            + lp.objective()
                .iter()
                .fold(0.0f64, |acc, &c| acc.max(c.abs()));
        let mut pricer = AuditedSteepestEdge {
            scale,
            ..Default::default()
        };
        let mut solver = Revised::build(lp, options);
        let status = solver.run_attempt(None, &mut pricer);
        let solution = solver.extract(status);
        let reference = dense::solve(lp, &SimplexOptions::default());
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!((solution.objective - reference.objective).abs() < 1e-6);
        pricer
    }

    /// Steepest edge's carried reduced costs track the core's fresh `rc(j)`
    /// through whole pivot sequences (scheduled refactors every 8 pivots
    /// drop and re-base them), and pivots the rule did not choose — the
    /// Bland override on a degenerate LP — drop them too.
    #[test]
    fn steepest_edge_carried_reduced_costs_match_fresh_pricing() {
        let options = SimplexOptions {
            refactor_interval: 8,
            ..SimplexOptions::default()
        };
        let (mut audited, mut refactors) = (0, 0);
        for seed in 0..12u64 {
            let lp = random_packing_lp(seed, 40, 25);
            let audit = audited_solve(&lp, &options);
            audited += audit.audited;
            refactors += audit.refactors;
        }
        assert!(
            audited > 100 && refactors > 0,
            "{audited} audits, {refactors} refactors"
        );

        // a stall threshold of 1 hands every pivot after a degenerate one to
        // the Bland override
        let options = SimplexOptions {
            stall_threshold: 1,
            ..options
        };
        let mut rng = StdRng::seed_from_u64(77);
        let (mut chosen, mut other) = (0, 0);
        for _ in 0..8 {
            let mut lp = LinearProgram::new(Sense::Maximize);
            for _ in 0..30 {
                lp.add_variable(rng.random_range(1.0..2.0));
            }
            // edge constraints of a 30-cycle plus random chords
            for k in 0..60 {
                let (a, b) = if k < 30 {
                    (k, (k + 1) % 30)
                } else {
                    (rng.random_range(0..30), rng.random_range(0..30))
                };
                if a != b {
                    lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 1.0);
                }
            }
            let audit = audited_solve(&lp, &options);
            chosen += audit.chosen_pivots;
            other += audit.other_pivots;
        }
        assert!(
            chosen > 0 && other > 0,
            "{chosen} chosen, {other} Bland pivots"
        );
    }

    #[test]
    fn hyper_sparse_toggle_preserves_solutions_on_all_engines() {
        // `hyper_sparse: false` routes every FTRAN/BTRAN through the legacy
        // dense kernels; the toggle must be a pure performance lever, so the
        // two paths must agree on status, objective, and feasibility — on
        // random packing LPs and on the degenerate / duplicated-row /
        // rank-deficient stress LP alike.
        let mut lps: Vec<LinearProgram> = (0..6u64)
            .map(|s| random_packing_lp(400 + s, 4 + s as usize, 3 + s as usize))
            .collect();
        lps.push(degenerate_duplicated_lp());
        for (k, lp) in lps.iter().enumerate() {
            for base in all_engines() {
                let on = solve(lp, &base.with_hyper_sparse(true));
                let off = solve(lp, &base.with_hyper_sparse(false));
                let label = format!(
                    "lp {k} engine {}x{}",
                    base.pricing.name(),
                    base.basis.name()
                );
                assert_eq!(on.status, off.status, "{label}");
                if on.status == LpStatus::Optimal {
                    assert!(
                        (on.objective - off.objective).abs() < 1e-7,
                        "{label}: sparse {} vs dense {}",
                        on.objective,
                        off.objective
                    );
                    assert!(lp.is_feasible(&on.x, 1e-7), "{label}");
                    assert!(lp.is_feasible(&off.x, 1e-7), "{label}");
                }
                // the disabled path bypasses the indexed kernels entirely,
                // so it must report zero tracked solves and "no data" density
                assert_eq!(off.stats.ftran_sparse_hits, 0, "{label}");
                assert_eq!(off.stats.ftran_dense_fallbacks, 0, "{label}");
                assert_eq!(off.stats.btran_sparse_hits, 0, "{label}");
                assert_eq!(off.stats.btran_dense_fallbacks, 0, "{label}");
                assert!(
                    (off.stats.avg_result_density - 1.0).abs() < 1e-12,
                    "{label}"
                );
                // the LU-based factorizations track every indexed solve;
                // any solve that pivoted must therefore show activity
                let tracked = on.stats.ftran_sparse_hits
                    + on.stats.ftran_dense_fallbacks
                    + on.stats.btran_sparse_hits
                    + on.stats.btran_dense_fallbacks;
                if on.iterations > 0
                    && matches!(base.basis, BasisKind::SparseLu | BasisKind::ForrestTomlin)
                {
                    assert!(tracked > 0, "{label}: no tracked hyper-sparse solves");
                    assert!(
                        on.stats.avg_result_density > 0.0 && on.stats.avg_result_density <= 1.0,
                        "{label}: density {} out of range",
                        on.stats.avg_result_density
                    );
                }
            }
        }
    }

    // Random packing LPs: every engine's solution must be feasible, match
    // the dense reference, and satisfy weak/strong duality.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_random_packing_lps_are_solved_consistently(
            n in 1usize..8,
            m in 1usize..8,
            obj in prop::collection::vec(0.0f64..10.0, 8),
            rows in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 8), 8),
            rhs in prop::collection::vec(1.0f64..20.0, 8),
            engine in 0usize..12,
        ) {
            let mut lp = LinearProgram::new(Sense::Maximize);
            for &c in obj.iter().take(n) {
                lp.add_variable(c);
            }
            for i in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rows[i][j])).collect();
                lp.add_constraint(coeffs, Relation::Le, rhs[i]);
            }
            let options = all_engines()[engine];
            let sol = solve(&lp, &options);
            // packing LPs with x = 0 feasible are never infeasible
            prop_assert_ne!(sol.status, LpStatus::Infeasible);
            if sol.status == LpStatus::Optimal {
                prop_assert!(lp.is_feasible(&sol.x, 1e-6));
                // weak duality: b^T y >= c^T x for feasible dual y
                let dual_obj: f64 = (0..m).map(|i| sol.duals[i] * rhs[i]).sum();
                prop_assert!(dual_obj >= sol.objective - 1e-5);
                // strong duality within tolerance
                prop_assert!((dual_obj - sol.objective).abs() < 1e-4 * (1.0 + sol.objective.abs()));
                // dual feasibility: A^T y >= c (for maximization with <=)
                for j in 0..n {
                    let lhs: f64 = (0..m).map(|i| sol.duals[i] * rows[i][j]).sum();
                    prop_assert!(lhs >= obj[j] - 1e-5);
                }
                // and the dense reference finds the same optimum
                let reference = dense::solve(&lp, &SimplexOptions::default());
                prop_assert_eq!(reference.status, LpStatus::Optimal);
                prop_assert!((sol.objective - reference.objective).abs() < 1e-6,
                    "engine {}x{}: {} vs dense {}",
                    options.pricing.name(), options.basis.name(),
                    sol.objective, reference.objective);
            }
        }

        #[test]
        fn prop_random_mixed_lps_feasible_solutions(
            n in 1usize..6,
            obj in prop::collection::vec(-5.0f64..5.0, 6),
            rows in prop::collection::vec(prop::collection::vec(-3.0f64..3.0, 6), 6),
            rhs in prop::collection::vec(-5.0f64..5.0, 6),
            rels in prop::collection::vec(0u8..3, 6),
            m in 1usize..6,
            engine in 0usize..12,
        ) {
            let mut lp = LinearProgram::new(Sense::Maximize);
            for &c in obj.iter().take(n) {
                lp.add_variable(c);
            }
            for i in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rows[i][j])).collect();
                let rel = match rels[i] % 3 {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                lp.add_constraint(coeffs, rel, rhs[i]);
            }
            // always bound the variables so "unbounded" cannot occur and the
            // optimal face is a polytope
            for j in 0..n {
                lp.add_constraint(vec![(j, 1.0)], Relation::Le, 10.0);
            }
            let options = all_engines()[engine];
            let sol = solve(&lp, &options);
            match sol.status {
                LpStatus::Optimal => {
                    prop_assert!(lp.is_feasible(&sol.x, 1e-5));
                    let reference = dense::solve(&lp, &SimplexOptions::default());
                    if reference.status == LpStatus::Optimal {
                        prop_assert!((sol.objective - reference.objective).abs()
                            < 1e-5 * (1.0 + sol.objective.abs()),
                            "engine {}x{}: {} vs dense {}",
                            options.pricing.name(), options.basis.name(),
                            sol.objective, reference.objective);
                    }
                }
                LpStatus::Infeasible => {
                    // the dense reference must agree that no point exists
                    let reference = dense::solve(&lp, &SimplexOptions::default());
                    prop_assert_ne!(reference.status, LpStatus::Optimal);
                }
                LpStatus::Unbounded => prop_assert!(false, "bounded LP reported unbounded"),
                LpStatus::IterationLimit => { /* extremely unlikely; accept */ }
            }
        }

        #[test]
        fn prop_hyper_sparse_paths_agree_on_mixed_lps(
            n in 1usize..6,
            obj in prop::collection::vec(-5.0f64..5.0, 6),
            rows in prop::collection::vec(prop::collection::vec(-3.0f64..3.0, 6), 6),
            rhs in prop::collection::vec(-5.0f64..5.0, 6),
            rels in prop::collection::vec(0u8..3, 6),
            m in 1usize..6,
            dup in 0usize..6,
            engine in 0usize..12,
        ) {
            // Mixed-relation LPs with one row duplicated verbatim (rank
            // deficiency when the relation is Eq): the indexed FTRAN/BTRAN
            // kernels must not change the verdict or the optimum.
            let mut lp = LinearProgram::new(Sense::Maximize);
            for &c in obj.iter().take(n) {
                lp.add_variable(c);
            }
            for i in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rows[i][j])).collect();
                let rel = match rels[i] % 3 {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                lp.add_constraint(coeffs, rel, rhs[i]);
            }
            {
                let i = dup % m;
                let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rows[i][j])).collect();
                let rel = match rels[i] % 3 {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                lp.add_constraint(coeffs, rel, rhs[i]);
            }
            for j in 0..n {
                lp.add_constraint(vec![(j, 1.0)], Relation::Le, 10.0);
            }
            let base = all_engines()[engine];
            let on = solve(&lp, &base.with_hyper_sparse(true));
            let off = solve(&lp, &base.with_hyper_sparse(false));
            prop_assert_eq!(on.status, off.status,
                "engine {}x{}", base.pricing.name(), base.basis.name());
            if on.status == LpStatus::Optimal {
                prop_assert!((on.objective - off.objective).abs()
                    < 1e-6 * (1.0 + on.objective.abs()),
                    "engine {}x{}: sparse {} vs dense {}",
                    base.pricing.name(), base.basis.name(),
                    on.objective, off.objective);
                prop_assert!(lp.is_feasible(&on.x, 1e-5));
                prop_assert!(lp.is_feasible(&off.x, 1e-5));
            }
            prop_assert_eq!(off.stats.ftran_sparse_hits
                + off.stats.ftran_dense_fallbacks
                + off.stats.btran_sparse_hits
                + off.stats.btran_dense_fallbacks, 0);
        }
    }
}
