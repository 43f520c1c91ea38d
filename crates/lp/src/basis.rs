//! Pluggable basis factorizations for the revised simplex.
//!
//! The revised method needs four linear-algebra primitives per iteration —
//! FTRAN (`w = B⁻¹ a`), BTRAN (`y = cᵦ B⁻¹`), a single row of `B⁻¹` (for
//! Devex pivot rows and for driving artificials out), and a rank-one pivot
//! update — plus a periodic rebuild from the basis columns. This module
//! abstracts them behind the [`BasisFactorization`] trait so the simplex
//! core ([`crate::simplex`]) is independent of *how* the basis is
//! represented:
//!
//! * [`ProductFormInverse`] — the PR 1 representation: an explicit dense
//!   row-major `m × m` inverse updated in product form. Every primitive is
//!   `O(m²)` (FTRAN `O(m · nnz)`), which is fine for small masters but is
//!   the documented bottleneck at `m ≳ 5·10³` rows.
//! * [`SparseLu`] — a sparse LU factorization (`B = Pᵀ L U`, partial
//!   pivoting, left-looking elimination with a dense scratch column) with
//!   product-form **eta updates** between periodic refactorizations: each
//!   pivot appends a sparse eta matrix to the inverse representation instead
//!   of touching `O(m²)` entries, so FTRAN / BTRAN cost
//!   `O(nnz(L) + nnz(U) + nnz(etas))` and a pivot costs `O(nnz(w))`. The
//!   eta file is bounded (and the update refuses unstable pivots), which
//!   forces a refactorization through the simplex core's existing hygiene
//!   path — but between refactorizations the file still *grows* by one eta
//!   per pivot, so solve cost creeps up with the pivot count.
//! * [`ForrestTomlinLu`] — a **Markowitz-ordered** LU (choose the pivot
//!   minimizing the fill bound `(r−1)(c−1)` among entries passing the
//!   relative threshold `|B_pq| ≥ 0.1 · max_p |B_pq|`, with explicit row
//!   *and* column permutations; the triangular part of the basis is peeled
//!   off first, see below) combined with genuine **Forrest–Tomlin
//!   updates of `U`**: a basis change replaces one column of `U` by the
//!   spike `s = U·w` (free from the pivot FTRAN image `w = B⁻¹ a_e`), moves
//!   that column last in the triangular order, and eliminates the displaced
//!   row of `U` with a short **row eta** of multipliers. `U` itself stays
//!   triangular with bounded fill (only the spike column is added), so
//!   FTRAN/BTRAN stay `O(nnz(L) + nnz(U) + nnz(row etas))` with row etas
//!   that are typically far sparser than product-form etas: the update cost
//!   tracks the *row* structure of `U`, not the full FTRAN image. Unstable
//!   replacements (tiny new diagonal relative to the spike) are declined,
//!   which routes through the same forced-refactorization path as
//!   [`SparseLu`].
//!
//! Which factorization runs is chosen by [`BasisKind`] in
//! [`crate::simplex::SimplexOptions`]; the property tests solve every
//! pricing × basis combination against the dense oracle ([`crate::dense`]).
//!
//! ## The Forrest–Tomlin rebuild: peel, then Markowitz on the bump
//!
//! A refactorization picks its `m` pivots in the order of Suhl & Suhl's
//! triangularize-then-Markowitz LU. Each step takes the first that applies:
//!
//! 1. a **column singleton** — an active column with one active entry. That
//!    entry is its column's maximum, so it always passes the threshold, and
//!    pivoting on it adds no fill and no `L` entries;
//! 2. a **row singleton** — an active row with one active entry, taken only
//!    if it passes the threshold. It adds no fill;
//! 3. the **Markowitz search** on what is left (the *bump*): up to eight
//!    columns of minimum active count are searched for the cheapest stable
//!    entry. The search scans all active columns only when every one of
//!    those columns is numerically empty.
//!
//! Active columns sit in doubly linked buckets by active count. Bucket 1
//! holds the column singletons, the lowest nonempty bucket holds the
//! Markowitz candidates, and a count change is an `O(1)` relink. Row
//! singletons come from a worklist fed wherever a row's count drops to one.
//! A rebuild therefore costs `O(nnz(B))` for the triangular part plus the
//! elimination work inside the bump, never an `O(m)` scan per pivot. Auction
//! bases are slacks plus near-triangular bundle columns, so almost every
//! pivot is a singleton.
//!
//! ## The Forrest–Tomlin update in formulas
//!
//! Write the factorized basis as `B = L_eff · U` (all prior row etas folded
//! into `L_eff⁻¹ = Rₖ ⋯ R₁ L⁻¹`). Replacing the basis column with stable
//! id `t` by the entering column `a` gives `B' = L_eff (U + (s − U e_t) e_tᵀ)`
//! with spike `s = L_eff⁻¹ a = U w`, where `w = B⁻¹ a` is the FTRAN image
//! the simplex pivot already computed. Moving column/row `t` to the last
//! position leaves `U` upper triangular except for the displaced row `t`,
//! whose entries are eliminated left to right by multipliers
//! `μ_j = rowval_j / U_jj`; those multipliers form the new row eta
//! `R = I − e_t μᵀ`, the new diagonal is `d = s_t − Σ_j μ_j s_j`, and the
//! spike entries become column `t` of the updated `U`.

use serde::{Deserialize, Serialize};

/// Selects the basis representation used by the revised simplex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BasisKind {
    /// Explicit dense `B⁻¹` maintained in product form (`O(m²)` per pivot).
    ProductForm,
    /// Sparse LU factors with product-form eta updates and periodic
    /// refactorization.
    SparseLu,
    /// Markowitz-ordered sparse LU with Forrest–Tomlin updates of `U`
    /// (bounded fill per pivot; the default at scale).
    ForrestTomlin,
}

impl BasisKind {
    /// Short stable name used in bench labels and stats tables.
    pub fn name(self) -> &'static str {
        match self {
            BasisKind::ProductForm => "product-form",
            BasisKind::SparseLu => "sparse-lu",
            BasisKind::ForrestTomlin => "ft-lu",
        }
    }
}

/// A sparse column of the basis matrix: `(row index, value)` pairs.
pub type SparseColumn = Vec<(usize, f64)>;

/// A solve result that is **indexed when sparse, plain when dense**.
///
/// The dense `values` array (length `m`) is always authoritative: `value(i)`
/// and [`values`](Self::values) are valid in both representations. When
/// [`is_sparse`](Self::is_sparse) is `true`, `pattern` lists every index
/// that *may* be non-zero (a superset — entries can cancel to exact zero),
/// so consumers iterate [`for_each_nonzero`](Self::for_each_nonzero) in
/// `O(nnz)` instead of `O(m)`. When it is `false` the result came from a
/// dense kernel (fallback above the density cutoff, or sparsity disabled)
/// and iteration scans the full array.
#[derive(Clone, Debug, Default)]
pub struct SparseVector {
    values: Vec<f64>,
    pattern: Vec<usize>,
    sparse: bool,
}

impl SparseVector {
    /// An all-zero sparse vector of length `m`.
    pub fn zeros(m: usize) -> Self {
        SparseVector {
            values: vec![0.0; m],
            pattern: Vec::new(),
            sparse: true,
        }
    }

    /// Length of the dense view.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has length zero.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the indexed pattern is valid (`false` means the result was
    /// produced by a dense kernel and only the dense view is meaningful).
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Upper bound on the number of non-zeros: the pattern length when
    /// sparse, `m` when dense.
    pub fn nnz_upper_bound(&self) -> usize {
        if self.sparse {
            self.pattern.len()
        } else {
            self.values.len()
        }
    }

    /// The dense view (always valid, length `m`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry `i` of the dense view.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// The index pattern (meaningful only when [`is_sparse`](Self::is_sparse)).
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Visits every non-zero entry as `(index, value)` — over the pattern
    /// when sparse, over the full array when dense.
    #[inline]
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, f64)) {
        if self.sparse {
            for &i in &self.pattern {
                let v = self.values[i];
                if v != 0.0 {
                    f(i, v);
                }
            }
        } else {
            for (i, &v) in self.values.iter().enumerate() {
                if v != 0.0 {
                    f(i, v);
                }
            }
        }
    }

    /// Resets to an all-zero **sparse** vector of length `m`, clearing the
    /// previous contents in `O(previous nnz)` when possible.
    pub fn begin(&mut self, m: usize) {
        if self.values.len() == m {
            if self.sparse {
                for &i in &self.pattern {
                    self.values[i] = 0.0;
                }
            } else {
                self.values.fill(0.0);
            }
        } else {
            self.values.clear();
            self.values.resize(m, 0.0);
        }
        self.pattern.clear();
        self.sparse = true;
    }

    /// Resets to an all-zero **dense** vector of length `m` (for results
    /// produced by dense kernels).
    pub fn begin_dense(&mut self, m: usize) {
        self.begin(m);
        self.sparse = false;
    }

    /// Mutable dense view; marks the vector dense (the pattern can no
    /// longer be trusted once a caller writes arbitrary entries).
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.sparse = false;
        self.pattern.clear();
        &mut self.values
    }
}

/// Cumulative hyper-sparse solve counters of one factorization (monotone
/// over its lifetime; take deltas across a solve to attribute per-solve
/// work). Only the sparse-capable entry points
/// ([`BasisFactorization::ftran_sparse_into`] /
/// [`BasisFactorization::btran_unit_into`]) are tracked: `*_sparse +
/// *_dense` is the number of tracked solves, and the density sums cover
/// both (a dense fallback counts `m / m`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SparsityStats {
    /// FTRAN solves answered by the hyper-sparse (Gilbert–Peierls) path.
    pub ftran_sparse: u64,
    /// FTRAN solves that fell back to the dense kernel (reach exceeded the
    /// density cutoff, or the representation has no sparse path).
    pub ftran_dense: u64,
    /// Pivot-row BTRANs answered by the hyper-sparse path.
    pub btran_sparse: u64,
    /// Pivot-row BTRANs that fell back to the dense kernel.
    pub btran_dense: u64,
    /// Summed result pattern sizes over all tracked solves.
    pub result_nnz: u64,
    /// Summed result lengths (`m`) over all tracked solves.
    pub result_len: u64,
}

impl SparsityStats {
    /// Field-wise difference against an earlier snapshot of the same
    /// factorization (saturating, so a factorization swap never underflows).
    pub fn delta_since(self, baseline: SparsityStats) -> SparsityStats {
        SparsityStats {
            ftran_sparse: self.ftran_sparse.saturating_sub(baseline.ftran_sparse),
            ftran_dense: self.ftran_dense.saturating_sub(baseline.ftran_dense),
            btran_sparse: self.btran_sparse.saturating_sub(baseline.btran_sparse),
            btran_dense: self.btran_dense.saturating_sub(baseline.btran_dense),
            result_nnz: self.result_nnz.saturating_sub(baseline.result_nnz),
            result_len: self.result_len.saturating_sub(baseline.result_len),
        }
    }

    /// Number of tracked solves.
    pub fn tracked_solves(self) -> u64 {
        self.ftran_sparse + self.ftran_dense + self.btran_sparse + self.btran_dense
    }

    /// Average result density (`nnz / m`) over the tracked solves, `1.0`
    /// when nothing was tracked.
    pub fn avg_density(self) -> f64 {
        if self.result_len > 0 {
            self.result_nnz as f64 / self.result_len as f64
        } else {
            1.0
        }
    }
}

/// Interior-mutability counters behind [`SparsityStats`]: the solve methods
/// take `&self`, so the factorizations count through `Cell`s.
#[derive(Clone, Debug, Default)]
struct SparsityCounters {
    ftran_sparse: std::cell::Cell<u64>,
    ftran_dense: std::cell::Cell<u64>,
    btran_sparse: std::cell::Cell<u64>,
    btran_dense: std::cell::Cell<u64>,
    result_nnz: std::cell::Cell<u64>,
    result_len: std::cell::Cell<u64>,
}

impl SparsityCounters {
    fn record_ftran(&self, sparse: bool, nnz: usize, m: usize) {
        if sparse {
            self.ftran_sparse.set(self.ftran_sparse.get() + 1);
        } else {
            self.ftran_dense.set(self.ftran_dense.get() + 1);
        }
        self.result_nnz.set(self.result_nnz.get() + nnz as u64);
        self.result_len.set(self.result_len.get() + m as u64);
    }

    fn record_btran(&self, sparse: bool, nnz: usize, m: usize) {
        if sparse {
            self.btran_sparse.set(self.btran_sparse.get() + 1);
        } else {
            self.btran_dense.set(self.btran_dense.get() + 1);
        }
        self.result_nnz.set(self.result_nnz.get() + nnz as u64);
        self.result_len.set(self.result_len.get() + m as u64);
    }

    fn snapshot(&self) -> SparsityStats {
        SparsityStats {
            ftran_sparse: self.ftran_sparse.get(),
            ftran_dense: self.ftran_dense.get(),
            btran_sparse: self.btran_sparse.get(),
            btran_dense: self.btran_dense.get(),
            result_nnz: self.result_nnz.get(),
            result_len: self.result_len.get(),
        }
    }
}

/// Gilbert–Peierls symbolic phase: an iterative DFS over the solve graph
/// from the right-hand side's support. `child(node, k)` returns the `k`-th
/// out-neighbor of `node` (or `None` past the end). On success, `post`
/// holds the reached nodes in **postorder** — iterate it in reverse for a
/// topological order of the numeric updates — and `visited` is marked for
/// every reached node (callers clear the marks via `post` when done).
/// Returns `false` (with `post` emptied and all marks unwound) as soon as
/// more than `cap` nodes are reached: the result would be too dense for
/// the sparse kernel to pay, and the caller falls back to the dense one.
fn symbolic_reach(
    support: impl IntoIterator<Item = usize>,
    child: impl Fn(usize, usize) -> Option<usize>,
    visited: &mut [bool],
    stack: &mut Vec<(usize, usize)>,
    post: &mut Vec<usize>,
    cap: usize,
) -> bool {
    post.clear();
    stack.clear();
    for s0 in support {
        if visited[s0] {
            continue;
        }
        if post.len() + 1 > cap {
            for &(n, _) in stack.iter() {
                visited[n] = false;
            }
            for &n in post.iter() {
                visited[n] = false;
            }
            post.clear();
            stack.clear();
            return false;
        }
        visited[s0] = true;
        stack.push((s0, 0));
        while let Some(&(node, cursor)) = stack.last() {
            stack.last_mut().expect("stack is non-empty").1 += 1;
            match child(node, cursor) {
                Some(c) if !visited[c] => {
                    if post.len() + stack.len() + 1 > cap {
                        for &(n, _) in stack.iter() {
                            visited[n] = false;
                        }
                        for &n in post.iter() {
                            visited[n] = false;
                        }
                        post.clear();
                        stack.clear();
                        return false;
                    }
                    visited[c] = true;
                    stack.push((c, 0));
                }
                Some(_) => {}
                None => {
                    stack.pop();
                    post.push(node);
                }
            }
        }
    }
    true
}

/// The linear-algebra kernel behind the revised simplex.
///
/// All vectors indexed "by basis position" refer to the slot `r` of the
/// simplex basis (`basis[r]` is the member whose column occupies position
/// `r`); vectors indexed "by row" refer to original constraint rows. The
/// two spaces have the same length `m` but are permuted relative to each
/// other inside the LU representation.
pub trait BasisFactorization: std::fmt::Debug + Send {
    /// Which representation this is (reported in solve stats).
    fn kind(&self) -> BasisKind;

    /// Number of rows of the factorized basis (0 before the first
    /// [`refactor`](Self::refactor)).
    fn num_rows(&self) -> usize;

    /// Rebuilds the factorization from scratch. `cols[c]` is the sparse
    /// column (by original row index) of the basis member at position `c`.
    /// Returns `false` when the basis matrix is numerically singular; the
    /// factorization is then left **empty** (`num_rows()` returns 0, solves
    /// write zeros) until the next successful refactor. Callers that keep
    /// going after a failure therefore get well-defined garbage (zero duals
    /// under a non-optimal status), never a partially-built factor.
    fn refactor(&mut self, m: usize, cols: &[SparseColumn]) -> bool;

    /// FTRAN with a sparse right-hand side: `w = B⁻¹ a` where `a` is given
    /// as `(row, value)` entries. `w` (length `m`) is indexed by basis
    /// position.
    fn ftran_sparse(&self, entries: &[(usize, f64)], w: &mut [f64]);

    /// FTRAN with a dense right-hand side (used to recompute `x_B = B⁻¹ b`).
    fn ftran_dense(&self, rhs: &[f64], w: &mut [f64]);

    /// BTRAN: `y = cᵦ B⁻¹` for the basic cost vector `cb` (indexed by basis
    /// position); `y` (length `m`) is indexed by original row.
    fn btran(&self, cb: &[f64], y: &mut [f64]);

    /// Row `r` of `B⁻¹` (`rho = eᵣᵀ B⁻¹`, indexed by original row): the
    /// pivot row used by Devex weight updates and by the artificial
    /// drive-out pass.
    fn btran_unit(&self, r: usize, rho: &mut [f64]);

    /// Applies the pivot that replaces the basis column at position `l` by
    /// the column whose FTRAN image is `w` (so the new `B⁻¹` is
    /// `E · B⁻¹_old` with the eta matrix built from `(l, w)`).
    ///
    /// Returns `false` when the representation declines the update for
    /// stability or capacity reasons — the caller must then refactor from
    /// the (already updated) basis columns; the factorization state is
    /// unspecified until it does.
    fn update(&mut self, l: usize, w: &[f64]) -> bool;

    /// Number of successful [`update`](Self::update)s since the last
    /// [`refactor`](Self::refactor).
    fn updates_since_refactor(&self) -> usize;

    /// Clones the factorization state (used by [`crate::simplex::WarmStart`],
    /// which must stay `Clone` for the column-generation master).
    fn box_clone(&self) -> Box<dyn BasisFactorization>;

    /// FTRAN with a sparse right-hand side into an indexed result: the
    /// hyper-sparse (Gilbert–Peierls) path when the representation supports
    /// one and the reach stays below the density cutoff, the dense kernel
    /// (with `w` marked dense) otherwise. The default implementation is the
    /// dense kernel; `w` keeps its current length when the factorization is
    /// empty.
    fn ftran_sparse_into(&self, entries: &[(usize, f64)], w: &mut SparseVector) {
        let m = self.num_rows();
        if m == 0 {
            let keep = w.len();
            w.begin(keep);
            return;
        }
        w.begin_dense(m);
        self.ftran_sparse(entries, w.values_mut());
    }

    /// Pivot-row BTRAN (`rho = eᵣᵀ B⁻¹`) into an indexed result; same
    /// sparse-or-dense contract as
    /// [`ftran_sparse_into`](Self::ftran_sparse_into).
    fn btran_unit_into(&self, r: usize, rho: &mut SparseVector) {
        let m = self.num_rows();
        if m == 0 {
            let keep = rho.len();
            rho.begin(keep);
            return;
        }
        rho.begin_dense(m);
        self.btran_unit(r, rho.values_mut());
    }

    /// [`update`](Self::update) from an indexed FTRAN image; representations
    /// override this to build the eta/spike from the pattern instead of an
    /// `O(m)` scan.
    fn update_sparse(&mut self, l: usize, w: &SparseVector) -> bool {
        self.update(l, w.values())
    }

    /// Cumulative hyper-sparse solve counters over this factorization's
    /// lifetime (all zeros for representations without a sparse path).
    fn sparsity_stats(&self) -> SparsityStats {
        SparsityStats::default()
    }
}

impl Clone for Box<dyn BasisFactorization> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Creates an empty factorization of the requested kind.
pub fn make_factorization(kind: BasisKind) -> Box<dyn BasisFactorization> {
    match kind {
        BasisKind::ProductForm => Box::new(ProductFormInverse::default()),
        BasisKind::SparseLu => Box::new(SparseLu::default()),
        BasisKind::ForrestTomlin => Box::new(ForrestTomlinLu::default()),
    }
}

// ---------------------------------------------------------------------------
// Product-form inverse (the PR 1 representation)
// ---------------------------------------------------------------------------

/// Explicit dense `B⁻¹`, row-major, updated in product form.
#[derive(Clone, Debug, Default)]
pub struct ProductFormInverse {
    m: usize,
    /// row-major `m × m`: `binv[r * m + i]` maps row `i` to basis position `r`
    binv: Vec<f64>,
    updates: usize,
}

impl ProductFormInverse {
    /// Wraps an existing dense inverse (used when migrating a pre-seam warm
    /// start and by tests).
    pub fn from_dense(m: usize, binv: Vec<f64>) -> Self {
        assert_eq!(binv.len(), m * m, "inverse must be m × m");
        ProductFormInverse {
            m,
            binv,
            updates: 0,
        }
    }
}

impl BasisFactorization for ProductFormInverse {
    fn kind(&self) -> BasisKind {
        BasisKind::ProductForm
    }

    fn num_rows(&self) -> usize {
        self.m
    }

    fn refactor(&mut self, m: usize, cols: &[SparseColumn]) -> bool {
        assert_eq!(cols.len(), m, "one column per basis position");
        self.m = m;
        self.updates = 0;
        // Dense B (column per basis position), then Gauss–Jordan with
        // partial pivoting applied to [B | I].
        let mut bmat = vec![0.0f64; m * m];
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                bmat[r * m + c] += v;
            }
        }
        let mut inv = vec![0.0f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for k in 0..m {
            let mut p = k;
            let mut best = bmat[k * m + k].abs();
            for r in (k + 1)..m {
                let cand = bmat[r * m + k].abs();
                if cand > best {
                    best = cand;
                    p = r;
                }
            }
            if best <= 1e-12 {
                // singular: leave the empty state, not a stale inverse
                self.m = 0;
                self.binv.clear();
                return false;
            }
            if p != k {
                for j in 0..m {
                    bmat.swap(k * m + j, p * m + j);
                    inv.swap(k * m + j, p * m + j);
                }
            }
            let inv_piv = 1.0 / bmat[k * m + k];
            for j in 0..m {
                bmat[k * m + j] *= inv_piv;
                inv[k * m + j] *= inv_piv;
            }
            for r in 0..m {
                if r == k {
                    continue;
                }
                let f = bmat[r * m + k];
                if f != 0.0 {
                    for j in 0..m {
                        bmat[r * m + j] -= f * bmat[k * m + j];
                        inv[r * m + j] -= f * inv[k * m + j];
                    }
                }
            }
        }
        self.binv = inv;
        true
    }

    fn ftran_sparse(&self, entries: &[(usize, f64)], w: &mut [f64]) {
        let m = self.m;
        for v in w.iter_mut() {
            *v = 0.0;
        }
        if m == 0 {
            return; // empty state (failed refactor): solves write zeros
        }
        for &(i, a) in entries {
            if a != 0.0 {
                for (r, wr) in w.iter_mut().enumerate() {
                    *wr += self.binv[r * m + i] * a;
                }
            }
        }
    }

    fn ftran_dense(&self, rhs: &[f64], w: &mut [f64]) {
        let m = self.m;
        for (r, wr) in w.iter_mut().enumerate() {
            let row = &self.binv[r * m..(r + 1) * m];
            *wr = row.iter().zip(rhs.iter()).map(|(a, b)| a * b).sum();
        }
    }

    fn btran(&self, cb: &[f64], y: &mut [f64]) {
        let m = self.m;
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for (r, &c) in cb.iter().enumerate() {
            if c != 0.0 {
                let row = &self.binv[r * m..(r + 1) * m];
                for (yk, &bk) in y.iter_mut().zip(row.iter()) {
                    *yk += c * bk;
                }
            }
        }
    }

    fn btran_unit(&self, r: usize, rho: &mut [f64]) {
        let m = self.m;
        if m == 0 {
            rho.fill(0.0);
            return;
        }
        rho.copy_from_slice(&self.binv[r * m..(r + 1) * m]);
    }

    fn update(&mut self, l: usize, w: &[f64]) -> bool {
        let m = self.m;
        let wl = w[l];
        if wl.abs() <= 1e-12 {
            return false;
        }
        let inv_wl = 1.0 / wl;
        for j in 0..m {
            self.binv[l * m + j] *= inv_wl;
        }
        let pivot_row: Vec<f64> = self.binv[l * m..(l + 1) * m].to_vec();
        for (r, &f) in w.iter().enumerate().take(m) {
            if r == l || f == 0.0 {
                continue;
            }
            let row = &mut self.binv[r * m..(r + 1) * m];
            for (dst, &p) in row.iter_mut().zip(pivot_row.iter()) {
                *dst -= f * p;
            }
        }
        self.updates += 1;
        true
    }

    fn updates_since_refactor(&self) -> usize {
        self.updates
    }

    fn box_clone(&self) -> Box<dyn BasisFactorization> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Sparse LU with eta updates
// ---------------------------------------------------------------------------

/// One eta matrix of the update file: `B⁻¹_new = E · B⁻¹_old` with
/// `E = I + (e_l − w) e_lᵀ / w_l` built from the pivot `(l, w = B⁻¹ a_e)`.
#[derive(Clone, Debug)]
struct Eta {
    /// Pivot position (basis slot).
    l: usize,
    /// Pivot element `w_l`.
    wl: f64,
    /// Off-pivot entries `(r, w_r)` with `r ≠ l`.
    entries: Vec<(usize, f64)>,
}

/// Sparse LU factors of the basis with a product-form eta file.
///
/// `B = Pᵀ L U` with row permutation `P` chosen by partial pivoting during
/// a left-looking elimination; pivots append eta matrices instead of
/// re-factorizing. See the module docs for the cost model.
#[derive(Clone, Debug, Default)]
pub struct SparseLu {
    m: usize,
    /// Columns of unit-lower-triangular `L`: entries `(original row, value)`
    /// for rows pivoted *after* step `k`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Off-diagonal columns of `U`: entries `(step i < k, value)`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` per step.
    u_diag: Vec<f64>,
    /// `prow[k]` = original row chosen as pivot at elimination step `k`.
    prow: Vec<usize>,
    /// Eta file, in application (creation) order.
    etas: Vec<Eta>,
    /// Total entries across the eta file (bounds FTRAN/BTRAN cost).
    eta_entries: usize,
    /// Reusable solve workspaces (FTRAN rhs / BTRAN cost / BTRAN permuted
    /// solution / unit-cost vector): the trait's solve methods take `&self`
    /// and run once per pivot, so these avoid a heap allocation per call.
    /// `scratch_unit` is separate because `btran_unit` calls `btran`, which
    /// borrows the other two.
    scratch_x: std::cell::RefCell<Vec<f64>>,
    scratch_c: std::cell::RefCell<Vec<f64>>,
    scratch_s: std::cell::RefCell<Vec<f64>>,
    scratch_unit: std::cell::RefCell<Vec<f64>>,
    /// `step_of_row[r]` = elimination step that pivoted original row `r`
    /// (inverse of `prow`); drives the hyper-sparse L-phase reachability.
    step_of_row: Vec<usize>,
    /// Row-wise mirror of `l_cols`: `l_rows[r]` = `(step k, value)` for every
    /// entry of row `r` in `L` (the transposed-solve adjacency for BTRAN).
    l_rows: Vec<Vec<(usize, f64)>>,
    /// Row-wise mirror of `u_cols`: `u_rows[i]` = `(step k, value)` for every
    /// off-diagonal entry of row `i` in `U`.
    u_rows: Vec<Vec<(usize, f64)>>,
    /// Hyper-sparse solve workspaces: two value scratches with an all-zero
    /// invariant between calls, DFS marks/stack, per-phase reach lists, and
    /// a support buffer.
    sp_x: std::cell::RefCell<Vec<f64>>,
    sp_z: std::cell::RefCell<Vec<f64>>,
    sp_mark: std::cell::RefCell<Vec<bool>>,
    sp_stack: std::cell::RefCell<Vec<(usize, usize)>>,
    sp_reach_a: std::cell::RefCell<Vec<usize>>,
    sp_reach_b: std::cell::RefCell<Vec<usize>>,
    sp_support: std::cell::RefCell<Vec<usize>>,
    /// Hyper-sparse solve counters (monotone over the lifetime).
    counters: SparsityCounters,
}

impl SparseLu {
    /// Tiny pivots below this are treated as singular.
    const SINGULAR_TOL: f64 = 1e-12;
    /// Pivot elements below this refuse the eta update (forces refactor).
    const UPDATE_TOL: f64 = 1e-9;

    /// Density cutoff for the hyper-sparse solves: once a symbolic reach
    /// exceeds this many nodes the result is dense enough that the plain
    /// kernels win, so the solve bails and re-runs densely.
    fn sparse_cap(&self) -> usize {
        (self.m / 4).max(4)
    }

    /// Gilbert–Peierls FTRAN into an indexed result. Returns `false` (with
    /// all scratch state restored) when any phase's reach exceeds the
    /// density cutoff; the caller then falls back to the dense kernel.
    fn ftran_hyper_sparse(&self, entries: &[(usize, f64)], w: &mut SparseVector) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        if entries.len() > cap {
            return false;
        }
        let mut x = self.sp_x.borrow_mut();
        if x.len() < m {
            x.resize(m, 0.0);
        }
        let mut mark = self.sp_mark.borrow_mut();
        if mark.len() < m {
            mark.resize(m, false);
        }
        let mut stack = self.sp_stack.borrow_mut();
        let mut reach_l = self.sp_reach_a.borrow_mut();
        let mut reach_u = self.sp_reach_b.borrow_mut();

        // --- L phase (original-row space): DFS from the rhs support along
        // the L column pattern, then the numeric forward elimination over
        // the reach in topological (reverse postorder) order.
        let ok = symbolic_reach(
            entries.iter().filter(|e| e.1 != 0.0).map(|e| e.0),
            |r, i| self.l_cols[self.step_of_row[r]].get(i).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_l,
            cap,
        );
        if !ok {
            return false;
        }
        for &(r, a) in entries {
            x[r] += a;
        }
        for &r in reach_l.iter().rev() {
            let z = x[r];
            if z != 0.0 {
                for &(rr, lv) in &self.l_cols[self.step_of_row[r]] {
                    x[rr] -= z * lv;
                }
            }
        }
        for &r in reach_l.iter() {
            mark[r] = false;
        }

        // --- U phase (step space): support = steps of the reached rows.
        let ok = symbolic_reach(
            reach_l.iter().map(|&r| self.step_of_row[r]),
            |k, i| self.u_cols[k].get(i).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_u,
            cap,
        );
        if !ok {
            for &r in reach_l.iter() {
                x[r] = 0.0;
            }
            return false;
        }
        w.begin(m);
        for &k in reach_u.iter().rev() {
            let wk = x[self.prow[k]] / self.u_diag[k];
            w.values[k] = wk;
            w.pattern.push(k);
            if wk != 0.0 {
                for &(i, uv) in &self.u_cols[k] {
                    x[self.prow[i]] -= uv * wk;
                }
            }
        }
        // restore the all-zero invariant: phase-L rows plus every backward
        // propagation target
        for &r in reach_l.iter() {
            x[r] = 0.0;
        }
        for &k in reach_u.iter() {
            x[self.prow[k]] = 0.0;
        }

        // --- eta file (basis-position space); the U-phase DFS marks double
        // as the pattern guard for fill the etas introduce.
        for eta in &self.etas {
            let vl = w.values[eta.l] / eta.wl;
            if vl != 0.0 {
                w.values[eta.l] = vl;
                for &(r, wr) in &eta.entries {
                    if !mark[r] {
                        mark[r] = true;
                        w.pattern.push(r);
                    }
                    w.values[r] -= wr * vl;
                }
            }
        }
        for &k in w.pattern.iter() {
            mark[k] = false;
        }
        true
    }

    /// Gilbert–Peierls pivot-row BTRAN (`y = eᵣᵀ B⁻¹`) into an indexed
    /// result; same bail-to-dense contract as
    /// [`ftran_hyper_sparse`](Self::ftran_hyper_sparse).
    fn btran_unit_hyper_sparse(&self, r: usize, y: &mut SparseVector) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        let mut c = self.sp_x.borrow_mut(); // basis-position space
        if c.len() < m {
            c.resize(m, 0.0);
        }
        let mut s = self.sp_z.borrow_mut(); // step space
        if s.len() < m {
            s.resize(m, 0.0);
        }
        let mut mark = self.sp_mark.borrow_mut();
        if mark.len() < m {
            mark.resize(m, false);
        }
        let mut stack = self.sp_stack.borrow_mut();
        let mut reach_u = self.sp_reach_a.borrow_mut();
        let mut reach_lt = self.sp_reach_b.borrow_mut();
        let mut cpat = self.sp_support.borrow_mut();

        // --- eta file (row action, reverse order) on the unit cost vector.
        // The pattern is tracked by value transitions; a duplicate push after
        // an exact cancellation is tolerated (the DFS dedups below).
        cpat.clear();
        c[r] = 1.0;
        cpat.push(r);
        for eta in self.etas.iter().rev() {
            let cl = c[eta.l];
            let mut dot = cl * eta.wl;
            for &(rr, wr) in &eta.entries {
                dot += c[rr] * wr;
            }
            if cl != 0.0 || dot != 0.0 {
                let ncl = cl + (cl - dot) / eta.wl;
                if cl == 0.0 && ncl != 0.0 {
                    cpat.push(eta.l);
                }
                c[eta.l] = ncl;
            }
        }
        if cpat.len() > cap {
            for &k in cpat.iter() {
                c[k] = 0.0;
            }
            return false;
        }

        // --- Uᵀ phase (step space): value flows from step i to step k along
        // u_rows[i]; pull-based numeric over the reach.
        let ok = symbolic_reach(
            cpat.iter().copied(),
            |i, idx| self.u_rows[i].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_u,
            cap,
        );
        if !ok {
            for &k in cpat.iter() {
                c[k] = 0.0;
            }
            return false;
        }
        for &k in reach_u.iter().rev() {
            let mut v = c[k];
            for &(i, uv) in &self.u_cols[k] {
                v -= uv * s[i];
            }
            s[k] = v / self.u_diag[k];
        }
        for &k in cpat.iter() {
            c[k] = 0.0;
        }
        for &k in reach_u.iter() {
            mark[k] = false;
        }

        // --- Lᵀ phase (step space): value flows from step j to the steps
        // whose L column contains row prow[j].
        let ok = symbolic_reach(
            reach_u.iter().copied(),
            |j, idx| self.l_rows[self.prow[j]].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_lt,
            cap,
        );
        if !ok {
            for &k in reach_u.iter() {
                s[k] = 0.0;
            }
            return false;
        }
        y.begin(m);
        for &k in reach_u.iter() {
            y.values[self.prow[k]] = s[k];
            s[k] = 0.0;
        }
        for &k in reach_lt.iter().rev() {
            let pr = self.prow[k];
            let mut acc = y.values[pr];
            for &(rr, lv) in &self.l_cols[k] {
                acc -= lv * y.values[rr];
            }
            y.values[pr] = acc;
            y.pattern.push(pr);
        }
        for &k in reach_lt.iter() {
            mark[k] = false;
        }
        true
    }

    /// Eta-file capacity: once the file holds more than `4m + 64` entries
    /// the update declines and the core refactorizes, keeping the marginal
    /// FTRAN/BTRAN cost linear in the factor size.
    fn eta_capacity(&self) -> usize {
        4 * self.m + 64
    }

    /// Forward elimination (`L⁻¹` with the row permutation folded in)
    /// applied to the dense scratch `x` (indexed by original row). After the
    /// call, `x[prow[k]]` holds the permuted solution component `z_k`.
    fn forward(&self, x: &mut [f64]) {
        for k in 0..self.m {
            let z = x[self.prow[k]];
            if z != 0.0 {
                for &(r, lv) in &self.l_cols[k] {
                    x[r] -= z * lv;
                }
            }
        }
    }

    /// Backward substitution `U w = z` where `z_k = x[prow[k]]`; writes the
    /// solution (indexed by basis position) into `w`.
    fn backward(&self, x: &mut [f64], w: &mut [f64]) {
        for k in (0..self.m).rev() {
            let wk = x[self.prow[k]] / self.u_diag[k];
            w[k] = wk;
            if wk != 0.0 {
                for &(i, uv) in &self.u_cols[k] {
                    x[self.prow[i]] -= uv * wk;
                }
            }
        }
    }

    /// Applies the eta file (column action, creation order) to `w`.
    fn apply_etas_ftran(&self, w: &mut [f64]) {
        for eta in &self.etas {
            let vl = w[eta.l] / eta.wl;
            w[eta.l] = vl;
            if vl != 0.0 {
                for &(r, wr) in &eta.entries {
                    w[r] -= wr * vl;
                }
            }
        }
    }

    /// Applies the eta file (row action, reverse order) to `c`.
    fn apply_etas_btran(&self, c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut dot = c[eta.l] * eta.wl;
            for &(r, wr) in &eta.entries {
                dot += c[r] * wr;
            }
            c[eta.l] += (c[eta.l] - dot) / eta.wl;
        }
    }

    fn lu_solve_into(&self, x: &mut [f64], w: &mut [f64]) {
        if self.m == 0 {
            // empty state (failed refactor): solves write zeros
            w.fill(0.0);
            return;
        }
        self.forward(x);
        self.backward(x, w);
        self.apply_etas_ftran(w);
    }
}

impl BasisFactorization for SparseLu {
    fn kind(&self) -> BasisKind {
        BasisKind::SparseLu
    }

    fn num_rows(&self) -> usize {
        self.m
    }

    fn refactor(&mut self, m: usize, cols: &[SparseColumn]) -> bool {
        assert_eq!(cols.len(), m, "one column per basis position");
        self.m = m;
        self.etas.clear();
        self.eta_entries = 0;
        self.l_cols.clear();
        self.u_cols.clear();
        self.u_diag.clear();
        self.prow.clear();
        self.l_cols.reserve(m);
        self.u_cols.reserve(m);
        self.u_diag.reserve(m);
        self.prow.reserve(m);

        // pos[r] = elimination step of original row r (MAX while unpivoted)
        let mut pos = vec![usize::MAX; m];
        let mut x = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(m);

        for col in cols.iter() {
            // scatter the basis column into the scratch
            for &(r, v) in col {
                if x[r] == 0.0 && v != 0.0 {
                    touched.push(r);
                }
                x[r] += v;
            }
            // left-looking: apply the L columns computed so far (step order)
            let k = self.u_diag.len();
            for j in 0..k {
                let xj = x[self.prow[j]];
                if xj != 0.0 {
                    for &(r, lv) in &self.l_cols[j] {
                        if x[r] == 0.0 {
                            touched.push(r);
                        }
                        x[r] -= xj * lv;
                    }
                }
            }
            // partial pivot among unpivoted rows
            let mut p = usize::MAX;
            let mut best = Self::SINGULAR_TOL;
            for &r in &touched {
                if pos[r] == usize::MAX {
                    let cand = x[r].abs();
                    if cand > best {
                        best = cand;
                        p = r;
                    }
                }
            }
            if p == usize::MAX {
                // no usable pivot: singular — leave the empty state, not a
                // partially built factor
                self.m = 0;
                self.l_cols.clear();
                self.u_cols.clear();
                self.u_diag.clear();
                self.prow.clear();
                self.step_of_row.clear();
                self.l_rows.clear();
                self.u_rows.clear();
                return false;
            }
            let piv = x[p];
            pos[p] = k;
            self.prow.push(p);
            self.u_diag.push(piv);
            let mut ucol: Vec<(usize, f64)> = Vec::new();
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                let v = x[r];
                x[r] = 0.0;
                if v == 0.0 || r == p {
                    continue;
                }
                match pos[r] {
                    usize::MAX => lcol.push((r, v / piv)),
                    step => ucol.push((step, v)),
                }
            }
            touched.clear();
            self.u_cols.push(ucol);
            self.l_cols.push(lcol);
        }

        // row-wise mirrors + permutation inverse for the hyper-sparse solves
        self.step_of_row.clear();
        self.step_of_row.resize(m, 0);
        for (k, &r) in self.prow.iter().enumerate() {
            self.step_of_row[r] = k;
        }
        self.l_rows.clear();
        self.l_rows.resize(m, Vec::new());
        for (k, lcol) in self.l_cols.iter().enumerate() {
            for &(r, lv) in lcol {
                self.l_rows[r].push((k, lv));
            }
        }
        self.u_rows.clear();
        self.u_rows.resize(m, Vec::new());
        for (k, ucol) in self.u_cols.iter().enumerate() {
            for &(i, uv) in ucol {
                self.u_rows[i].push((k, uv));
            }
        }
        true
    }

    fn ftran_sparse(&self, entries: &[(usize, f64)], w: &mut [f64]) {
        if self.m == 0 {
            w.fill(0.0);
            return;
        }
        let mut x = self.scratch_x.borrow_mut();
        x.clear();
        x.resize(self.m, 0.0);
        for &(i, a) in entries {
            x[i] += a;
        }
        self.lu_solve_into(&mut x, w);
    }

    fn ftran_sparse_into(&self, entries: &[(usize, f64)], w: &mut SparseVector) {
        let m = self.m;
        if m == 0 {
            let keep = w.len();
            w.begin(keep);
            return;
        }
        if self.ftran_hyper_sparse(entries, w) {
            self.counters.record_ftran(true, w.pattern.len(), m);
        } else {
            w.begin_dense(m);
            self.ftran_sparse(entries, &mut w.values);
            self.counters.record_ftran(false, m, m);
        }
    }

    fn btran_unit_into(&self, r: usize, rho: &mut SparseVector) {
        let m = self.m;
        if m == 0 {
            let keep = rho.len();
            rho.begin(keep);
            return;
        }
        if self.btran_unit_hyper_sparse(r, rho) {
            self.counters.record_btran(true, rho.pattern.len(), m);
        } else {
            rho.begin_dense(m);
            self.btran_unit(r, &mut rho.values);
            self.counters.record_btran(false, m, m);
        }
    }

    fn update_sparse(&mut self, l: usize, w: &SparseVector) -> bool {
        if !w.is_sparse() {
            return self.update(l, w.values());
        }
        let wl = w.value(l);
        if wl.abs() <= Self::UPDATE_TOL || self.eta_entries >= self.eta_capacity() {
            return false;
        }
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(w.pattern.len());
        w.for_each_nonzero(|r, v| {
            if r != l && v.abs() > 1e-12 {
                entries.push((r, v));
            }
        });
        // same entry order as the dense scan, so both paths apply the eta
        // in the identical floating-point sequence
        entries.sort_unstable_by_key(|e| e.0);
        self.eta_entries += entries.len() + 1;
        self.etas.push(Eta { l, wl, entries });
        true
    }

    fn sparsity_stats(&self) -> SparsityStats {
        self.counters.snapshot()
    }

    fn ftran_dense(&self, rhs: &[f64], w: &mut [f64]) {
        let mut x = self.scratch_x.borrow_mut();
        x.clear();
        x.extend_from_slice(rhs);
        self.lu_solve_into(&mut x, w);
    }

    fn btran(&self, cb: &[f64], y: &mut [f64]) {
        // y = cᵦ B⁻¹ with B⁻¹ = Eₖ…E₁ · U⁻¹ ∘ read ∘ forward:
        // apply the eta file to cᵦ (row action, reverse order), then solve
        // Uᵀ s = c (ascending steps), scatter s through the permutation and
        // apply the transposed forward elimination in reverse.
        let m = self.m;
        let mut c = self.scratch_c.borrow_mut();
        c.clear();
        c.extend_from_slice(cb);
        self.apply_etas_btran(&mut c);
        let mut s = self.scratch_s.borrow_mut();
        s.clear();
        s.resize(m, 0.0);
        for k in 0..m {
            let mut v = c[k];
            for &(i, uv) in &self.u_cols[k] {
                v -= uv * s[i];
            }
            s[k] = v / self.u_diag[k];
        }
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for k in 0..m {
            y[self.prow[k]] = s[k];
        }
        for k in (0..m).rev() {
            let mut acc = y[self.prow[k]];
            for &(r, lv) in &self.l_cols[k] {
                acc -= lv * y[r];
            }
            y[self.prow[k]] = acc;
        }
    }

    fn btran_unit(&self, r: usize, rho: &mut [f64]) {
        if self.m == 0 {
            rho.fill(0.0);
            return;
        }
        // `scratch_unit` is distinct from btran's own workspaces, so the
        // nested call cannot double-borrow.
        let mut cb = self.scratch_unit.borrow_mut();
        cb.clear();
        cb.resize(self.m, 0.0);
        cb[r] = 1.0;
        self.btran(&cb, rho);
    }

    fn update(&mut self, l: usize, w: &[f64]) -> bool {
        let wl = w[l];
        if wl.abs() <= Self::UPDATE_TOL || self.eta_entries >= self.eta_capacity() {
            return false;
        }
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(r, &v)| r != l && v.abs() > 1e-12)
            .map(|(r, &v)| (r, v))
            .collect();
        self.eta_entries += entries.len() + 1;
        self.etas.push(Eta { l, wl, entries });
        true
    }

    fn updates_since_refactor(&self) -> usize {
        self.etas.len()
    }

    fn box_clone(&self) -> Box<dyn BasisFactorization> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Markowitz-ordered LU with Forrest–Tomlin updates
// ---------------------------------------------------------------------------

/// One Forrest–Tomlin row eta: the multipliers `μ` that eliminated the
/// displaced row `t` of `U` after its column moved to the last triangular
/// position (`R = I − e_t μᵀ`, entries in column-uid space). FTRAN applies
/// `x_t ← x_t − Σ_j μ_j x_j`; BTRAN applies `x_j ← x_j − μ_j x_t`.
#[derive(Clone, Debug)]
struct RowEta {
    t: usize,
    entries: Vec<(usize, f64)>,
}

/// Markowitz-ordered sparse LU factors with Forrest–Tomlin `U`-updates.
///
/// A rebuild first peels the triangular part of the basis off with column
/// and row singletons, then runs a bucketed Markowitz search on the
/// remaining bump only (see the module docs), for `O(nnz(B))` plus the
/// bump's elimination work. The bump's pivots are `(row, column)` pairs
/// chosen to minimize the Markowitz fill bound `(r−1)(c−1)` among entries
/// passing a relative stability threshold. The row permutation is stored
/// in `prow` and the column permutation in `slot_of_uid` (`uid` =
/// factorization step, the *stable* identity of a `U` column across
/// updates). Updates follow the
/// classic Forrest–Tomlin scheme (see the module docs): the spike column
/// `s = U·w` replaces column `t`, the displaced row is eliminated by a
/// short row eta, and `U` stays triangular in the explicit `order` / `pos`
/// column ordering.
#[derive(Clone, Debug, Default)]
pub struct ForrestTomlinLu {
    m: usize,
    /// Columns of unit-lower-triangular `L` per step: `(original row, mult)`
    /// for rows pivoted *after* that step.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `prow[k]` = original row pivoted at step `k`.
    prow: Vec<usize>,
    /// Diagonal of `U` per column uid.
    diag: Vec<f64>,
    /// Off-diagonal entries of `U`, column-wise: `ucols[j]` = `(row uid, value)`.
    ucols: Vec<Vec<(usize, f64)>>,
    /// The same entries row-wise: `urows[i]` = `(column uid, value)`.
    urows: Vec<Vec<(usize, f64)>>,
    /// Column uids in triangular order (entry `(i, j)` of `U` requires
    /// `pos[i] ≤ pos[j]`).
    order: Vec<usize>,
    /// `pos[uid]` = position of that column in `order`.
    pos: Vec<usize>,
    /// Basis slot occupied by each `U` column uid (the column permutation).
    slot_of_uid: Vec<usize>,
    /// Inverse of `slot_of_uid`.
    uid_of_slot: Vec<usize>,
    /// Forrest–Tomlin row etas, in creation order.
    etas: Vec<RowEta>,
    /// Total entries across the row etas (bounds FTRAN/BTRAN cost).
    eta_entries: usize,
    /// Reusable solve workspaces (see [`SparseLu`] for the aliasing rules).
    scratch_x: std::cell::RefCell<Vec<f64>>,
    scratch_c: std::cell::RefCell<Vec<f64>>,
    scratch_s: std::cell::RefCell<Vec<f64>>,
    scratch_unit: std::cell::RefCell<Vec<f64>>,
    /// `step_of_row[r]` = step (= uid) that pivoted original row `r`
    /// (inverse of `prow`); drives the hyper-sparse L-phase reachability.
    step_of_row: Vec<usize>,
    /// Row-wise mirror of `l_cols`: `l_rows[r]` = `(step k, value)` for every
    /// entry of row `r` in `L` (the transposed-solve adjacency for BTRAN).
    l_rows: Vec<Vec<(usize, f64)>>,
    /// Hyper-sparse solve workspaces (see [`SparseLu`] for the invariants).
    sp_x: std::cell::RefCell<Vec<f64>>,
    sp_z: std::cell::RefCell<Vec<f64>>,
    sp_mark: std::cell::RefCell<Vec<bool>>,
    sp_stack: std::cell::RefCell<Vec<(usize, usize)>>,
    sp_reach_a: std::cell::RefCell<Vec<usize>>,
    sp_reach_b: std::cell::RefCell<Vec<usize>>,
    sp_support: std::cell::RefCell<Vec<usize>>,
    /// Hyper-sparse solve counters (monotone over the lifetime).
    counters: SparsityCounters,
    /// Bucketed Markowitz searches the last rebuild ran; every other pivot
    /// was a peeled singleton.
    #[cfg(test)]
    markowitz_searches: usize,
}

impl ForrestTomlinLu {
    /// Tiny pivots below this are treated as singular.
    const SINGULAR_TOL: f64 = 1e-12;
    /// New diagonals below this refuse the FT update (forces refactor).
    const UPDATE_TOL: f64 = 1e-9;
    /// Relative stability floor: the new diagonal must not be smaller than
    /// this fraction of the spike's largest entry.
    const UPDATE_REL_TOL: f64 = 1e-9;
    /// Entries below this are dropped from stored factors.
    const DROP_TOL: f64 = 1e-12;
    /// Markowitz relative pivot threshold: a pivot must reach this fraction
    /// of the largest entry in its column.
    const PIVOT_THRESHOLD: f64 = 0.1;
    /// How many minimum-count candidate columns one pivot search examines
    /// before settling.
    const SEARCH_COLS: usize = 8;

    /// Row-eta capacity: once the file holds more than `4m + 64` entries the
    /// update declines and the core refactorizes (same budget as the
    /// [`SparseLu`] eta file, though FT row etas are typically much smaller).
    fn eta_capacity(&self) -> usize {
        4 * self.m + 64
    }

    /// Forward elimination `L⁻¹` (row permutation folded in) on the dense
    /// scratch `x` indexed by original row; afterwards `x[prow[k]]` holds the
    /// step-space value `z_k`.
    fn forward(&self, x: &mut [f64]) {
        for k in 0..self.m {
            let z = x[self.prow[k]];
            if z != 0.0 {
                for &(r, lv) in &self.l_cols[k] {
                    x[r] -= z * lv;
                }
            }
        }
    }

    /// Applies the row etas (FTRAN direction, creation order) to the
    /// uid-indexed vector `z`.
    fn apply_etas_ftran(&self, z: &mut [f64]) {
        for eta in &self.etas {
            let mut acc = z[eta.t];
            for &(j, mu) in &eta.entries {
                acc -= mu * z[j];
            }
            z[eta.t] = acc;
        }
    }

    /// Applies the transposed row etas (BTRAN direction, reverse order) to
    /// the uid-indexed vector `s`.
    fn apply_etas_btran(&self, s: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let st = s[eta.t];
            if st != 0.0 {
                for &(j, mu) in &eta.entries {
                    s[j] -= mu * st;
                }
            }
        }
    }

    /// Backward substitution `U ŵ = z` over the triangular order; writes the
    /// solution into `w` indexed by basis slot.
    fn backward(&self, z: &mut [f64], w: &mut [f64]) {
        for v in w.iter_mut() {
            *v = 0.0;
        }
        for p in (0..self.m).rev() {
            let j = self.order[p];
            let v = z[j] / self.diag[j];
            w[self.slot_of_uid[j]] = v;
            if v != 0.0 {
                for &(i, uv) in &self.ucols[j] {
                    z[i] -= uv * v;
                }
            }
        }
    }

    fn lu_solve_into(&self, x: &mut [f64], w: &mut [f64]) {
        if self.m == 0 {
            // empty state (failed refactor): solves write zeros
            w.fill(0.0);
            return;
        }
        self.forward(x);
        // move to uid (= step) space: z_k lives at x[prow[k]]
        let mut z = self.scratch_s.borrow_mut();
        z.clear();
        z.extend(self.prow.iter().map(|&r| x[r]));
        self.apply_etas_ftran(&mut z);
        self.backward(&mut z, w);
    }

    /// Clears every factor structure: the state promised by a failed
    /// [`BasisFactorization::refactor`] (`num_rows() == 0`, solves write
    /// zeros). `order`/`pos`/`uid_of_slot` are cleared too — they are the
    /// only vectors `refactor` does not rebuild-or-clear up front, and a
    /// stale `order` over empty `ucols` is exactly the shape that turns a
    /// post-failure BTRAN into an out-of-bounds index.
    fn reset_to_empty(&mut self) {
        self.m = 0;
        self.l_cols.clear();
        self.prow.clear();
        self.diag.clear();
        self.ucols.clear();
        self.urows.clear();
        self.order.clear();
        self.pos.clear();
        self.slot_of_uid.clear();
        self.uid_of_slot.clear();
        self.etas.clear();
        self.eta_entries = 0;
        self.step_of_row.clear();
        self.l_rows.clear();
    }

    /// Density cutoff for the hyper-sparse solves (see
    /// [`SparseLu::sparse_cap`]).
    fn sparse_cap(&self) -> usize {
        (self.m / 4).max(4)
    }

    /// Gilbert–Peierls FTRAN into an indexed result; `false` means the
    /// reach exceeded the density cutoff and the caller should run the
    /// dense kernel instead.
    fn ftran_hyper_sparse(&self, entries: &[(usize, f64)], w: &mut SparseVector) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        if entries.len() > cap {
            return false;
        }
        let mut x = self.sp_x.borrow_mut(); // original-row space
        if x.len() < m {
            x.resize(m, 0.0);
        }
        let mut z = self.sp_z.borrow_mut(); // uid space
        if z.len() < m {
            z.resize(m, 0.0);
        }
        let mut mark = self.sp_mark.borrow_mut();
        if mark.len() < m {
            mark.resize(m, false);
        }
        let mut stack = self.sp_stack.borrow_mut();
        let mut reach_l = self.sp_reach_a.borrow_mut();
        let mut reach_u = self.sp_reach_b.borrow_mut();
        let mut zpat = self.sp_support.borrow_mut();

        // --- L phase (original-row space) ---
        let ok = symbolic_reach(
            entries.iter().filter(|e| e.1 != 0.0).map(|e| e.0),
            |r, i| self.l_cols[self.step_of_row[r]].get(i).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_l,
            cap,
        );
        if !ok {
            return false;
        }
        for &(r, a) in entries {
            x[r] += a;
        }
        for &r in reach_l.iter().rev() {
            let v = x[r];
            if v != 0.0 {
                for &(rr, lv) in &self.l_cols[self.step_of_row[r]] {
                    x[rr] -= v * lv;
                }
            }
        }
        // move to uid (= step) space, restoring x and the L marks as we go
        zpat.clear();
        for &r in reach_l.iter() {
            mark[r] = false;
            let v = x[r];
            x[r] = 0.0;
            if v != 0.0 {
                let k = self.step_of_row[r];
                z[k] = v;
                zpat.push(k);
            }
        }

        // --- row etas (uid space), value-transition pattern pushes; a
        // duplicate push after an exact cancellation is tolerated (the DFS
        // below dedups, and the cleanup loops are idempotent).
        for eta in &self.etas {
            let old = z[eta.t];
            let mut acc = old;
            for &(j, mu) in &eta.entries {
                acc -= mu * z[j];
            }
            if acc != old {
                if old == 0.0 {
                    zpat.push(eta.t);
                }
                z[eta.t] = acc;
            }
        }
        if zpat.len() > cap {
            for &k in zpat.iter() {
                z[k] = 0.0;
            }
            return false;
        }

        // --- U backward (uid space): edges j → i along ucols[j] ---
        let ok = symbolic_reach(
            zpat.iter().copied(),
            |j, idx| self.ucols[j].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_u,
            cap,
        );
        if !ok {
            for &k in zpat.iter() {
                z[k] = 0.0;
            }
            return false;
        }
        w.begin(m);
        for &j in reach_u.iter().rev() {
            let v = z[j] / self.diag[j];
            let slot = self.slot_of_uid[j];
            w.values[slot] = v;
            w.pattern.push(slot);
            if v != 0.0 {
                for &(i, uv) in &self.ucols[j] {
                    z[i] -= uv * v;
                }
            }
        }
        // zpat ⊆ reach_u, so this restores the all-zero invariant on z
        for &j in reach_u.iter() {
            z[j] = 0.0;
            mark[j] = false;
        }
        true
    }

    /// Gilbert–Peierls pivot-row BTRAN into an indexed result; same
    /// bail-to-dense contract as
    /// [`ftran_hyper_sparse`](Self::ftran_hyper_sparse).
    fn btran_unit_hyper_sparse(&self, r: usize, y: &mut SparseVector) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        let mut c = self.sp_x.borrow_mut(); // uid space (cost image)
        if c.len() < m {
            c.resize(m, 0.0);
        }
        let mut s = self.sp_z.borrow_mut(); // uid space (Uᵀ solution)
        if s.len() < m {
            s.resize(m, 0.0);
        }
        let mut mark = self.sp_mark.borrow_mut();
        if mark.len() < m {
            mark.resize(m, false);
        }
        let mut stack = self.sp_stack.borrow_mut();
        let mut reach_u = self.sp_reach_a.borrow_mut();
        let mut reach_lt = self.sp_reach_b.borrow_mut();
        let mut spat = self.sp_support.borrow_mut();

        // --- Uᵀ phase (uid space): the unit cost vector has a single
        // nonzero at the uid occupying slot r; value flows i → j along
        // urows[i]; pull-based numeric over the reach.
        let t0 = self.uid_of_slot[r];
        c[t0] = 1.0;
        let ok = symbolic_reach(
            std::iter::once(t0),
            |i, idx| self.urows[i].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_u,
            cap,
        );
        if !ok {
            c[t0] = 0.0;
            return false;
        }
        for &j in reach_u.iter().rev() {
            let mut v = c[j];
            for &(i, uv) in &self.ucols[j] {
                v -= uv * s[i];
            }
            s[j] = v / self.diag[j];
        }
        c[t0] = 0.0;
        spat.clear();
        spat.extend(reach_u.iter().copied());
        for &j in reach_u.iter() {
            mark[j] = false;
        }

        // --- transposed row etas (reverse order), value-transition pushes
        for eta in self.etas.iter().rev() {
            let st = s[eta.t];
            if st != 0.0 {
                for &(j, mu) in &eta.entries {
                    if s[j] == 0.0 {
                        spat.push(j);
                    }
                    s[j] -= mu * st;
                }
            }
        }
        if spat.len() > cap {
            for &j in spat.iter() {
                s[j] = 0.0;
            }
            return false;
        }

        // --- Lᵀ phase (step space; uid = step) ---
        let ok = symbolic_reach(
            spat.iter().copied(),
            |j, idx| self.l_rows[self.prow[j]].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_lt,
            cap,
        );
        if !ok {
            for &j in spat.iter() {
                s[j] = 0.0;
            }
            return false;
        }
        y.begin(m);
        // scatter first, then clear: spat may hold duplicates, so the two
        // loops must not be fused (a fused loop would re-read a cleared 0.0)
        for &k in spat.iter() {
            y.values[self.prow[k]] = s[k];
        }
        for &k in spat.iter() {
            s[k] = 0.0;
        }
        for &k in reach_lt.iter().rev() {
            let pr = self.prow[k];
            let mut acc = y.values[pr];
            for &(rr, lv) in &self.l_cols[k] {
                acc -= lv * y.values[rr];
            }
            y.values[pr] = acc;
            y.pattern.push(pr);
        }
        for &k in reach_lt.iter() {
            mark[k] = false;
        }
        true
    }
}

impl BasisFactorization for ForrestTomlinLu {
    fn kind(&self) -> BasisKind {
        BasisKind::ForrestTomlin
    }

    fn num_rows(&self) -> usize {
        self.m
    }

    fn refactor(&mut self, m: usize, cols: &[SparseColumn]) -> bool {
        assert_eq!(cols.len(), m, "one column per basis position");
        self.m = m;
        self.etas.clear();
        self.eta_entries = 0;
        self.l_cols.clear();
        self.prow.clear();
        self.diag.clear();
        self.ucols.clear();
        self.urows.clear();
        self.slot_of_uid.clear();

        let mut active = ActiveSubmatrix::new(m, cols);
        let mut searches = 0usize;
        let mut pending_urows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for _ in 0..m {
            let Some((p, q, piv)) = active.choose_pivot(&mut searches) else {
                self.reset_to_empty();
                return false; // an empty column or no stable pivot anywhere: singular
            };
            let (lcol, prow_entries) = active.eliminate(p, q, piv);
            self.prow.push(p);
            self.slot_of_uid.push(q);
            self.diag.push(piv);
            self.l_cols.push(lcol);
            pending_urows.push(prow_entries);
        }
        #[cfg(test)]
        {
            self.markowitz_searches = searches;
        }

        // finalize: map pending U rows (slot-indexed columns) to uid space
        self.uid_of_slot = vec![0usize; m];
        for (uid, &slot) in self.slot_of_uid.iter().enumerate() {
            self.uid_of_slot[slot] = uid;
        }
        self.ucols = vec![Vec::new(); m];
        self.urows = vec![Vec::new(); m];
        for (i, entries) in pending_urows.into_iter().enumerate() {
            for (slot, v) in entries {
                let j = self.uid_of_slot[slot];
                self.urows[i].push((j, v));
                self.ucols[j].push((i, v));
            }
        }
        self.order = (0..m).collect();
        self.pos = (0..m).collect();

        // row-wise L mirror + permutation inverse for the hyper-sparse solves
        self.step_of_row.clear();
        self.step_of_row.resize(m, 0);
        for (k, &r) in self.prow.iter().enumerate() {
            self.step_of_row[r] = k;
        }
        self.l_rows.clear();
        self.l_rows.resize(m, Vec::new());
        for (k, lcol) in self.l_cols.iter().enumerate() {
            for &(r, lv) in lcol {
                self.l_rows[r].push((k, lv));
            }
        }
        true
    }

    fn ftran_sparse(&self, entries: &[(usize, f64)], w: &mut [f64]) {
        if self.m == 0 {
            w.fill(0.0);
            return;
        }
        let mut x = self.scratch_x.borrow_mut();
        x.clear();
        x.resize(self.m, 0.0);
        for &(i, a) in entries {
            x[i] += a;
        }
        self.lu_solve_into(&mut x, w);
    }

    fn ftran_dense(&self, rhs: &[f64], w: &mut [f64]) {
        let mut x = self.scratch_x.borrow_mut();
        x.clear();
        x.extend_from_slice(rhs);
        self.lu_solve_into(&mut x, w);
    }

    fn btran(&self, cb: &[f64], y: &mut [f64]) {
        // y = cᵦ B⁻¹ in uid space: solve Uᵀ s = ĉ over ascending positions,
        // apply the transposed row etas in reverse, then the transposed
        // forward elimination back in original-row space.
        let m = self.m;
        let mut c = self.scratch_c.borrow_mut();
        c.clear();
        c.extend(self.slot_of_uid.iter().map(|&slot| cb[slot]));
        let mut s = self.scratch_s.borrow_mut();
        s.clear();
        s.resize(m, 0.0);
        for p in 0..m {
            let j = self.order[p];
            let mut v = c[j];
            for &(i, uv) in &self.ucols[j] {
                v -= uv * s[i];
            }
            s[j] = v / self.diag[j];
        }
        self.apply_etas_btran(&mut s);
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for k in 0..m {
            y[self.prow[k]] = s[k];
        }
        for k in (0..m).rev() {
            let mut acc = y[self.prow[k]];
            for &(r, lv) in &self.l_cols[k] {
                acc -= lv * y[r];
            }
            y[self.prow[k]] = acc;
        }
    }

    fn btran_unit(&self, r: usize, rho: &mut [f64]) {
        if self.m == 0 {
            rho.fill(0.0);
            return;
        }
        let mut cb = self.scratch_unit.borrow_mut();
        cb.clear();
        cb.resize(self.m, 0.0);
        cb[r] = 1.0;
        self.btran(&cb, rho);
    }

    fn ftran_sparse_into(&self, entries: &[(usize, f64)], w: &mut SparseVector) {
        let m = self.m;
        if m == 0 {
            let keep = w.len();
            w.begin(keep);
            return;
        }
        if self.ftran_hyper_sparse(entries, w) {
            self.counters.record_ftran(true, w.pattern.len(), m);
        } else {
            w.begin_dense(m);
            self.ftran_sparse(entries, &mut w.values);
            self.counters.record_ftran(false, m, m);
        }
    }

    fn btran_unit_into(&self, r: usize, rho: &mut SparseVector) {
        let m = self.m;
        if m == 0 {
            let keep = rho.len();
            rho.begin(keep);
            return;
        }
        if self.btran_unit_hyper_sparse(r, rho) {
            self.counters.record_btran(true, rho.pattern.len(), m);
        } else {
            rho.begin_dense(m);
            self.btran_unit(r, &mut rho.values);
            self.counters.record_btran(false, m, m);
        }
    }

    fn update_sparse(&mut self, l: usize, w: &SparseVector) -> bool {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        if !w.is_sparse() {
            return self.update(l, w.values());
        }
        let m = self.m;
        if m == 0 {
            return false;
        }
        let t = self.uid_of_slot[l];

        // sparse spike FTRAN: s = U ŵ accumulated over the image's support
        // only; the pattern is collected by value transitions and deduped by
        // the sort (which also matches the dense scan's ascending-index
        // floating-point order exactly).
        let mut s = vec![0.0f64; m];
        let mut spat: Vec<usize> = Vec::with_capacity(2 * w.pattern.len() + 8);
        w.for_each_nonzero(|slot, v| {
            let j = self.uid_of_slot[slot];
            if s[j] == 0.0 {
                spat.push(j);
            }
            s[j] += self.diag[j] * v;
            for &(i, uv) in &self.ucols[j] {
                if s[i] == 0.0 {
                    spat.push(i);
                }
                s[i] += uv * v;
            }
        });
        spat.sort_unstable();
        spat.dedup();
        let mut s_inf = 0.0f64;
        for &j in &spat {
            s_inf = s_inf.max(s[j].abs());
        }

        // row-t elimination and commit are identical to the dense update
        let mut rowval = vec![0.0f64; m];
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for &(j, v) in &self.urows[t] {
            rowval[j] = v;
            heap.push(Reverse((self.pos[j], j)));
        }
        let mut mus: Vec<(usize, f64)> = Vec::new();
        let mut d = s[t];
        while let Some(Reverse((_, j))) = heap.pop() {
            let v = rowval[j];
            rowval[j] = 0.0;
            if v.abs() <= Self::DROP_TOL {
                continue;
            }
            let mu = v / self.diag[j];
            mus.push((j, mu));
            d -= mu * s[j];
            for &(j2, v2) in &self.urows[j] {
                if j2 == t || v2 == 0.0 {
                    continue;
                }
                if rowval[j2] == 0.0 {
                    heap.push(Reverse((self.pos[j2], j2)));
                }
                rowval[j2] -= mu * v2;
            }
        }

        if d.abs() <= Self::UPDATE_TOL
            || d.abs() < Self::UPDATE_REL_TOL * s_inf
            || self.eta_entries + mus.len() > self.eta_capacity()
        {
            return false;
        }

        let old_row = std::mem::take(&mut self.urows[t]);
        for &(j, _) in &old_row {
            self.ucols[j].retain(|&(i, _)| i != t);
        }
        let old_col = std::mem::take(&mut self.ucols[t]);
        for &(i, _) in &old_col {
            self.urows[i].retain(|&(j, _)| j != t);
        }
        let mut newcol: Vec<(usize, f64)> = Vec::new();
        for &i in &spat {
            let v = s[i];
            if i != t && v.abs() > Self::DROP_TOL {
                newcol.push((i, v));
                self.urows[i].push((t, v));
            }
        }
        self.ucols[t] = newcol;
        self.diag[t] = d;
        let p = self.pos[t];
        self.order.remove(p);
        self.order.push(t);
        for (idx, &u) in self.order.iter().enumerate().skip(p) {
            self.pos[u] = idx;
        }
        self.eta_entries += mus.len();
        self.etas.push(RowEta { t, entries: mus });
        true
    }

    fn sparsity_stats(&self) -> SparsityStats {
        self.counters.snapshot()
    }

    fn update(&mut self, l: usize, w: &[f64]) -> bool {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let m = self.m;
        if m == 0 {
            return false;
        }
        let t = self.uid_of_slot[l];

        // spike s = U ŵ, where ŵ is the FTRAN image mapped to uid space
        let mut s = vec![0.0f64; m];
        let mut s_inf = 0.0f64;
        for j in 0..m {
            let v = w[self.slot_of_uid[j]];
            if v != 0.0 {
                s[j] += self.diag[j] * v;
                for &(i, uv) in &self.ucols[j] {
                    s[i] += uv * v;
                }
            }
        }
        for &v in &s {
            s_inf = s_inf.max(v.abs());
        }

        // Eliminate the displaced row t left to right (ascending triangular
        // position); fill only spreads rightward, so each column is popped
        // at most once after its value is final.
        let mut rowval = vec![0.0f64; m];
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for &(j, v) in &self.urows[t] {
            rowval[j] = v;
            heap.push(Reverse((self.pos[j], j)));
        }
        let mut mus: Vec<(usize, f64)> = Vec::new();
        let mut d = s[t];
        while let Some(Reverse((_, j))) = heap.pop() {
            let v = rowval[j];
            rowval[j] = 0.0;
            if v.abs() <= Self::DROP_TOL {
                continue;
            }
            let mu = v / self.diag[j];
            mus.push((j, mu));
            d -= mu * s[j];
            for &(j2, v2) in &self.urows[j] {
                if j2 == t || v2 == 0.0 {
                    continue;
                }
                if rowval[j2] == 0.0 {
                    heap.push(Reverse((self.pos[j2], j2)));
                }
                rowval[j2] -= mu * v2;
            }
        }

        // stability / capacity gate — nothing has been mutated yet
        if d.abs() <= Self::UPDATE_TOL
            || d.abs() < Self::UPDATE_REL_TOL * s_inf
            || self.eta_entries + mus.len() > self.eta_capacity()
        {
            return false;
        }

        // commit: drop the old row/column t from both mirrors, install the
        // spike as the new column t, move t to the back of the order
        let old_row = std::mem::take(&mut self.urows[t]);
        for &(j, _) in &old_row {
            self.ucols[j].retain(|&(i, _)| i != t);
        }
        let old_col = std::mem::take(&mut self.ucols[t]);
        for &(i, _) in &old_col {
            self.urows[i].retain(|&(j, _)| j != t);
        }
        let mut newcol: Vec<(usize, f64)> = Vec::new();
        for (i, &v) in s.iter().enumerate() {
            if i != t && v.abs() > Self::DROP_TOL {
                newcol.push((i, v));
                self.urows[i].push((t, v));
            }
        }
        self.ucols[t] = newcol;
        self.diag[t] = d;
        let p = self.pos[t];
        self.order.remove(p);
        self.order.push(t);
        for (idx, &u) in self.order.iter().enumerate().skip(p) {
            self.pos[u] = idx;
        }
        self.eta_entries += mus.len();
        self.etas.push(RowEta { t, entries: mus });
        true
    }

    fn updates_since_refactor(&self) -> usize {
        self.etas.len()
    }

    fn box_clone(&self) -> Box<dyn BasisFactorization> {
        Box::new(self.clone())
    }
}

/// Empty link in [`ColumnBuckets`].
const NIL: usize = usize::MAX;

/// Active counts of the rebuild's columns, with every active column threaded
/// onto a doubly linked list per count: the Markowitz search reads its
/// minimum-count candidates, and the peel its column singletons (bucket 1),
/// without scanning the active columns. A count change is an `O(1)` relink.
struct ColumnBuckets {
    count: Vec<usize>,
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// Every bucket below this count is empty.
    lowest: usize,
}

impl ColumnBuckets {
    fn new(count: Vec<usize>) -> Self {
        let m = count.len();
        let mut buckets = ColumnBuckets {
            count,
            head: vec![NIL; m + 1],
            next: vec![NIL; m],
            prev: vec![NIL; m],
            lowest: 0,
        };
        // linked in reverse so each bucket lists its columns in index order
        for c in (0..m).rev() {
            buckets.link(c);
        }
        buckets
    }

    fn link(&mut self, c: usize) {
        let k = self.count[c];
        let h = self.head[k];
        self.prev[c] = NIL;
        self.next[c] = h;
        if h != NIL {
            self.prev[h] = c;
        }
        self.head[k] = c;
        self.lowest = self.lowest.min(k);
    }

    /// Takes `c` off its bucket (also how a pivoted column leaves for good).
    fn unlink(&mut self, c: usize) {
        let (p, n) = (self.prev[c], self.next[c]);
        if p == NIL {
            self.head[self.count[c]] = n;
        } else {
            self.next[p] = n;
        }
        if n != NIL {
            self.prev[n] = p;
        }
    }

    fn inc(&mut self, c: usize) {
        self.unlink(c);
        self.count[c] += 1;
        self.link(c);
    }

    fn dec(&mut self, c: usize) {
        self.unlink(c);
        self.count[c] -= 1;
        self.link(c);
    }

    /// The active columns holding exactly `k` active entries.
    fn bucket(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |c: usize| (c != NIL).then_some(c);
        std::iter::successors(live(self.head[k]), move |&c| live(self.next[c]))
    }

    /// The smallest count with a nonempty bucket.
    fn lowest_nonempty(&mut self) -> Option<usize> {
        while self.head.get(self.lowest) == Some(&NIL) {
            self.lowest += 1;
        }
        (self.lowest < self.head.len()).then_some(self.lowest)
    }
}

/// The active submatrix of a [`ForrestTomlinLu`] rebuild (basis rows and
/// columns not yet pivoted) with the pivot search's bookkeeping.
struct ActiveSubmatrix {
    /// Active rows as `(column, value)` sorted by column. An active row holds
    /// active columns only: a pivot strips its column from every row.
    rows: Vec<Vec<(usize, f64)>>,
    /// Candidate rows per column with lazy deletion (entries are validated
    /// against `rows` before use).
    col_rows: Vec<Vec<usize>>,
    row_count: Vec<usize>,
    active_row: Vec<bool>,
    cols: ColumnBuckets,
    /// Rows whose active count reached one; stale entries are skipped.
    row_singletons: Vec<usize>,
}

impl ActiveSubmatrix {
    fn new(m: usize, cols: &[SparseColumn]) -> Self {
        let mut row_len = vec![0usize; m];
        for &(r, _) in cols.iter().flatten() {
            row_len[r] += 1;
        }
        let mut rows: Vec<Vec<(usize, f64)>> =
            row_len.iter().map(|&len| Vec::with_capacity(len)).collect();
        // entries arrive in column order, so every row is born sorted
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if v != 0.0 {
                    rows[r].push((c, v));
                }
            }
        }
        let mut col_rows: Vec<Vec<usize>> = cols
            .iter()
            .map(|col| Vec::with_capacity(col.len()))
            .collect();
        let mut col_count = vec![0usize; m];
        let mut row_count = vec![0usize; m];
        for (r, row) in rows.iter_mut().enumerate() {
            // collapse duplicate column entries
            row.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
            row.retain(|&(_, v)| v != 0.0);
            for &(c, _) in row.iter() {
                col_rows[c].push(r);
                col_count[c] += 1;
            }
            row_count[r] = row.len();
        }
        let row_singletons = (0..m).rev().filter(|&r| row_count[r] == 1).collect();
        ActiveSubmatrix {
            rows,
            col_rows,
            row_count,
            active_row: vec![true; m],
            cols: ColumnBuckets::new(col_count),
            row_singletons,
        }
    }

    /// The value of column `c` in active row `r` (rows stay sorted).
    fn value_in(&self, r: usize, c: usize) -> Option<f64> {
        let row = &self.rows[r];
        row.binary_search_by_key(&c, |e| e.0)
            .ok()
            .map(|idx| row[idx].1)
    }

    /// The smallest stable pivot magnitude in column `c` (`PIVOT_THRESHOLD`
    /// of its largest active entry), or `None` if it is numerically empty.
    fn pivot_floor(&self, c: usize) -> Option<f64> {
        let colmax = self.col_rows[c]
            .iter()
            .filter(|&&r| self.active_row[r])
            .filter_map(|&r| self.value_in(r, c))
            .fold(0.0f64, |acc, v| acc.max(v.abs()));
        (colmax > ForrestTomlinLu::SINGULAR_TOL)
            .then(|| (ForrestTomlinLu::PIVOT_THRESHOLD * colmax).max(ForrestTomlinLu::SINGULAR_TOL))
    }

    /// Best stable pivot `(row, value, cost)` inside column `c`: minimizes
    /// the Markowitz cost `(r−1)(c−1)`, ties to the larger magnitude.
    fn best_in_col(&self, c: usize) -> Option<(usize, f64, usize)> {
        let floor = self.pivot_floor(c)?;
        let mut best: Option<(usize, f64, usize)> = None;
        for &r in &self.col_rows[c] {
            if !self.active_row[r] {
                continue;
            }
            let Some(v) = self.value_in(r, c) else {
                continue;
            };
            if v.abs() < floor {
                continue;
            }
            let cost = (self.row_count[r] - 1) * (self.cols.count[c] - 1);
            if best.is_none_or(|(_, bv, bc)| cost < bc || (cost == bc && v.abs() > bv.abs())) {
                best = Some((r, v, cost));
            }
        }
        best
    }

    /// Best stable pivot `(row, column, value, cost)` over the columns `cands`.
    fn best_over(&self, cands: impl Iterator<Item = usize>) -> Option<(usize, usize, f64, usize)> {
        let mut best: Option<(usize, usize, f64, usize)> = None;
        for c in cands {
            if let Some((r, v, cost)) = self.best_in_col(c) {
                if best.is_none_or(|(_, _, bv, bc)| cost < bc || (cost == bc && v.abs() > bv.abs()))
                {
                    best = Some((r, c, v, cost));
                }
            }
        }
        best
    }

    /// Chooses the next pivot `(row, column, value)`, or `None` when the
    /// basis is singular. Singletons come first: a column singleton's entry
    /// is its column's maximum, so it always passes the threshold and costs
    /// no fill; a row singleton costs no fill either but must pass the
    /// threshold test. Only when neither exists does the bucketed Markowitz
    /// search run (counted in `searches`) on the minimum-count columns.
    fn choose_pivot(&mut self, searches: &mut usize) -> Option<(usize, usize, f64)> {
        if self.cols.head[0] != NIL {
            return None; // a numerically empty column
        }
        let singleton = self
            .cols
            .bucket(1)
            .take(ForrestTomlinLu::SEARCH_COLS)
            .find_map(|c| self.best_in_col(c).map(|(r, v, _)| (r, c, v)));
        if singleton.is_some() {
            return singleton;
        }
        while let Some(r) = self.row_singletons.pop() {
            if !self.active_row[r] || self.row_count[r] != 1 {
                continue;
            }
            let (c, v) = self.rows[r][0];
            if self.pivot_floor(c).is_some_and(|floor| v.abs() >= floor) {
                return Some((r, c, v));
            }
        }
        *searches += 1;
        let k = self.cols.lowest_nonempty()?;
        self.best_over(self.cols.bucket(k).take(ForrestTomlinLu::SEARCH_COLS))
            .or_else(|| {
                // the minimum-count columns had no stable entry: widen the
                // search to every active column before declaring failure
                let all = (k..self.cols.head.len()).flat_map(|k| self.cols.bucket(k));
                self.best_over(all)
            })
            .map(|(r, c, v, _)| (r, c, v))
    }

    /// Pivots on `(p, q)`: retires row `p` and column `q` and eliminates `q`
    /// from every other active row. Returns the `L` column `(row, mult)` and
    /// the pivot row's remaining entries (a row of `U`, slot-indexed).
    fn eliminate(&mut self, p: usize, q: usize, piv: f64) -> (SparseColumn, SparseColumn) {
        self.active_row[p] = false;
        self.cols.unlink(q);
        let mut prow_entries = std::mem::take(&mut self.rows[p]);
        prow_entries.retain(|&(c, _)| c != q);
        for &(c, _) in &prow_entries {
            self.cols.dec(c);
        }
        // self-deduping: the merge removes the q entry, so stale duplicates
        // in col_rows[q] simply fail the lookup
        let mut lcol: Vec<(usize, f64)> = Vec::new();
        for r in std::mem::take(&mut self.col_rows[q]) {
            if !self.active_row[r] {
                continue;
            }
            let Some(v) = self.value_in(r, q) else {
                continue;
            };
            let mult = v / piv;
            lcol.push((r, mult));
            // rows[r] ← rows[r] − mult · pivot_row, dropping the q entry
            let old = std::mem::take(&mut self.rows[r]);
            let mut out: Vec<(usize, f64)> = Vec::with_capacity(old.len() + prow_entries.len());
            let (mut a, mut bb) = (0usize, 0usize);
            while a < old.len() || bb < prow_entries.len() {
                let ac = old.get(a).map(|e| e.0).unwrap_or(usize::MAX);
                let bc = prow_entries.get(bb).map(|e| e.0).unwrap_or(usize::MAX);
                if ac < bc {
                    if ac != q {
                        out.push(old[a]);
                    }
                    a += 1;
                } else if bc < ac {
                    let nv = -mult * prow_entries[bb].1;
                    if nv.abs() > 1e-14 {
                        out.push((bc, nv));
                        self.cols.inc(bc);
                        self.col_rows[bc].push(r);
                    }
                    bb += 1;
                } else {
                    let nv = old[a].1 - mult * prow_entries[bb].1;
                    if nv.abs() > 1e-14 {
                        out.push((ac, nv));
                    } else {
                        self.cols.dec(ac);
                    }
                    a += 1;
                    bb += 1;
                }
            }
            self.row_count[r] = out.len();
            if out.len() == 1 {
                self.row_singletons.push(r);
            }
            self.rows[r] = out;
        }
        (lcol, prow_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dense m × m reference multiply: B w for basis columns `cols`.
    fn apply_b(m: usize, cols: &[SparseColumn], w: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; m];
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r] += v * w[c];
            }
        }
        out
    }

    fn random_basis(seed: u64, m: usize) -> Vec<SparseColumn> {
        let mut rng = StdRng::seed_from_u64(seed);
        // diagonally-dominant so the basis is comfortably nonsingular
        (0..m)
            .map(|c| {
                let mut col: SparseColumn = vec![(c, 2.0 + rng.random_range(0.0..3.0))];
                for _ in 0..3 {
                    let r = rng.random_range(0..m);
                    if r != c {
                        col.push((r, rng.random_range(-0.4..0.4)));
                    }
                }
                col
            })
            .collect()
    }

    fn check_roundtrip(factor: &mut dyn BasisFactorization, seed: u64, m: usize) {
        let cols = random_basis(seed, m);
        assert!(factor.refactor(m, &cols), "random basis must factorize");
        check_solves(factor, &cols, seed);
    }

    /// FTRAN and BTRAN of the factorized `cols` against the dense products.
    fn check_solves(factor: &dyn BasisFactorization, cols: &[SparseColumn], seed: u64) {
        let m = cols.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);

        // FTRAN: B w = a
        let mut a: Vec<(usize, f64)> = Vec::new();
        for r in 0..m {
            if rng.random_range(0.0..1.0) < 0.5 {
                a.push((r, rng.random_range(-2.0..2.0)));
            }
        }
        let mut w = vec![0.0f64; m];
        factor.ftran_sparse(&a, &mut w);
        let bw = apply_b(m, cols, &w);
        let mut dense_a = vec![0.0f64; m];
        for &(r, v) in &a {
            dense_a[r] += v;
        }
        for r in 0..m {
            assert!(
                (bw[r] - dense_a[r]).abs() < 1e-8,
                "ftran row {r}: {} vs {}",
                bw[r],
                dense_a[r]
            );
        }

        // BTRAN: y B = cb, i.e. y · (column c) = cb[c]
        let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-3.0..3.0)).collect();
        let mut y = vec![0.0f64; m];
        factor.btran(&cb, &mut y);
        for (c, col) in cols.iter().enumerate() {
            let dot: f64 = col.iter().map(|&(r, v)| y[r] * v).sum();
            assert!(
                (dot - cb[c]).abs() < 1e-8,
                "btran col {c}: {dot} vs {}",
                cb[c]
            );
        }

        // btran_unit row r agrees with btran on e_r
        let r = m / 2;
        let mut rho = vec![0.0f64; m];
        factor.btran_unit(r, &mut rho);
        let mut er = vec![0.0f64; m];
        er[r] = 1.0;
        let mut yr = vec![0.0f64; m];
        factor.btran(&er, &mut yr);
        for i in 0..m {
            assert!((rho[i] - yr[i]).abs() < 1e-10);
        }
    }

    /// A random permutation of `0..m`.
    fn permutation(rng: &mut StdRng, m: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            p.swap(i, rng.random_range(0..=i));
        }
        p
    }

    /// The block upper-triangular basis `[[T1, X, Y], [0, D, Z], [0, 0, T2]]`
    /// with its rows and columns randomly permuted. `D` is a dense
    /// `bump × bump` block; outside it, half the columns are slacks and the
    /// rest carry two entries above the diagonal, like auction bundle
    /// columns. The column singletons peel `T1` and the row singletons `T2`.
    /// With `singular` set, the second column of `D` is twice the first.
    fn bump_basis(seed: u64, m: usize, bump: usize, singular: bool) -> Vec<SparseColumn> {
        let mut rng = StdRng::seed_from_u64(seed);
        let row = permutation(&mut rng, m);
        let slot = permutation(&mut rng, m);
        let d = (m - bump) / 2..(m - bump) / 2 + bump;
        let mut cols = vec![SparseColumn::new(); m];
        for k in 0..m {
            let mut col: SparseColumn = Vec::new();
            if d.contains(&k) {
                for i in d.clone() {
                    let dominance = if i == k { 4.0 } else { 0.0 };
                    col.push((row[i], dominance + rng.random_range(-0.5..0.5)));
                }
            } else {
                col.push((row[k], 2.0 + rng.random_range(0.0..1.0)));
            }
            if k > 0 && (d.contains(&k) || rng.random_range(0.0..1.0) < 0.5) {
                for _ in 0..2 {
                    col.push((row[rng.random_range(0..k)], rng.random_range(-0.5..0.5)));
                }
            }
            cols[slot[k]] = col;
        }
        if singular {
            let first = cols[slot[d.start]].clone();
            cols[slot[d.start + 1]] = first.iter().map(|&(r, v)| (r, 2.0 * v)).collect();
        }
        cols
    }

    /// A permuted-triangular basis — slacks plus bundle columns, the shape
    /// of an auction basis — is peeled entirely: zero Markowitz searches.
    #[test]
    fn triangular_basis_needs_no_markowitz_search() {
        let m = 2000;
        for seed in [1u64, 2] {
            let cols = bump_basis(seed, m, 0, false);
            let mut ft = ForrestTomlinLu::default();
            assert!(ft.refactor(m, &cols));
            assert_eq!(ft.markowitz_searches, 0, "seed {seed}");
            check_solves(&ft, &cols, seed);
        }
    }

    /// Triangular parts around a dense bump: the peel takes both triangles
    /// and Markowitz runs on the bump only, and the factors solve exactly.
    #[test]
    fn bump_basis_runs_markowitz_on_the_bump_only() {
        let (m, bump) = (300, 12);
        for seed in [3u64, 4, 5] {
            let cols = bump_basis(seed, m, bump, false);
            let mut ft = ForrestTomlinLu::default();
            assert!(ft.refactor(m, &cols));
            assert!(
                (1..=bump).contains(&ft.markowitz_searches),
                "seed {seed}: {} searches for a {bump}-column bump",
                ft.markowitz_searches
            );
            check_solves(&ft, &cols, seed);
        }
    }

    /// A basis singular only inside its bump fails the rebuild after the
    /// peel succeeded, and leaves the empty state behind.
    #[test]
    fn basis_singular_inside_the_bump_is_rejected() {
        let (m, bump) = (300, 12);
        let mut ft = ForrestTomlinLu::default();
        assert!(ft.refactor(m, &bump_basis(6, m, bump, false)));
        assert!(!ft.refactor(m, &bump_basis(6, m, bump, true)));
        assert_eq!(ft.num_rows(), 0);
        let mut w = vec![f64::NAN; m];
        ft.ftran_dense(&vec![1.0; m], &mut w);
        assert!(w.iter().all(|&v| v == 0.0));
        let mut y = vec![f64::NAN; m];
        ft.btran(&vec![1.0; m], &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn product_form_roundtrips() {
        for seed in 0..6u64 {
            let m = 3 + (seed as usize % 8);
            check_roundtrip(&mut ProductFormInverse::default(), seed, m);
        }
    }

    #[test]
    fn sparse_lu_roundtrips() {
        for seed in 0..6u64 {
            let m = 3 + (seed as usize % 8);
            check_roundtrip(&mut SparseLu::default(), seed, m);
        }
    }

    #[test]
    fn forrest_tomlin_roundtrips() {
        for seed in 0..6u64 {
            let m = 3 + (seed as usize % 8);
            check_roundtrip(&mut ForrestTomlinLu::default(), seed, m);
        }
    }

    #[test]
    fn all_kinds_agree_after_updates() {
        let m = 12;
        let cols = random_basis(99, m);
        let mut pf = ProductFormInverse::default();
        let mut lu = SparseLu::default();
        let mut ft = ForrestTomlinLu::default();
        assert!(pf.refactor(m, &cols));
        assert!(lu.refactor(m, &cols));
        assert!(ft.refactor(m, &cols));
        let mut rng = StdRng::seed_from_u64(4242);
        let mut cols = cols;
        for _ in 0..8 {
            // a random replacement column
            let mut e: SparseColumn = Vec::new();
            for r in 0..m {
                if rng.random_range(0.0..1.0) < 0.4 {
                    e.push((r, rng.random_range(-2.0..2.0)));
                }
            }
            e.push((rng.random_range(0..m), 3.0));
            let mut w_pf = vec![0.0f64; m];
            let mut w_lu = vec![0.0f64; m];
            let mut w_ft = vec![0.0f64; m];
            pf.ftran_sparse(&e, &mut w_pf);
            lu.ftran_sparse(&e, &mut w_lu);
            ft.ftran_sparse(&e, &mut w_ft);
            for r in 0..m {
                assert!((w_pf[r] - w_lu[r]).abs() < 1e-7, "lu ftran mismatch at {r}");
                assert!((w_pf[r] - w_ft[r]).abs() < 1e-7, "ft ftran mismatch at {r}");
            }
            // choose a pivot position with a healthy element
            let l = (0..m)
                .max_by(|&a, &b| w_pf[a].abs().partial_cmp(&w_pf[b].abs()).unwrap())
                .unwrap();
            if w_pf[l].abs() < 1e-6 {
                continue;
            }
            assert!(pf.update(l, &w_pf));
            assert!(lu.update(l, &w_lu));
            assert!(ft.update(l, &w_ft));
            cols[l] = e;
            // duals must agree afterwards
            let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut y_pf = vec![0.0f64; m];
            let mut y_lu = vec![0.0f64; m];
            let mut y_ft = vec![0.0f64; m];
            pf.btran(&cb, &mut y_pf);
            lu.btran(&cb, &mut y_lu);
            ft.btran(&cb, &mut y_ft);
            for i in 0..m {
                assert!((y_pf[i] - y_lu[i]).abs() < 1e-6, "lu btran mismatch at {i}");
                assert!((y_pf[i] - y_ft[i]).abs() < 1e-6, "ft btran mismatch at {i}");
            }
        }
        assert_eq!(pf.updates_since_refactor(), lu.updates_since_refactor());
        assert_eq!(pf.updates_since_refactor(), ft.updates_since_refactor());
    }

    #[test]
    fn singular_basis_is_rejected_by_all() {
        let m = 4;
        // two identical columns
        let mut cols = random_basis(7, m);
        cols[2] = cols[1].clone();
        for factor in [
            &mut ProductFormInverse::default() as &mut dyn BasisFactorization,
            &mut SparseLu::default(),
            &mut ForrestTomlinLu::default(),
        ] {
            assert!(!factor.refactor(m, &cols), "{:?}", factor.kind());
        }
    }

    /// A failed refactor must leave the factorization *empty*, not partially
    /// built: `num_rows() == 0` and every solve writes zeros. The crash this
    /// pins down came from the session's deep-arrival path — a singular
    /// rebuild mid-solve left stale `order` over cleared `ucols`, and the
    /// next BTRAN (extracting duals for the failed solve) indexed out of
    /// bounds.
    #[test]
    fn failed_refactor_leaves_a_safe_empty_state() {
        let m = 6;
        let good = random_basis(11, m);
        let mut singular = random_basis(11, m);
        singular[3] = singular[4].clone();
        for factor in [
            &mut ProductFormInverse::default() as &mut dyn BasisFactorization,
            &mut SparseLu::default(),
            &mut ForrestTomlinLu::default(),
        ] {
            let kind = factor.kind();
            // a prior *successful* factorization populates every structure,
            // so this exercises failure-after-success, not the fresh state
            assert!(factor.refactor(m, &good), "{kind:?}: good basis");
            assert!(!factor.refactor(m, &singular), "{kind:?}: singular");
            assert_eq!(factor.num_rows(), 0, "{kind:?}: empty after failure");

            // every solve entry point is callable and writes zeros
            let cb = vec![1.0f64; m];
            let mut y = vec![f64::NAN; m];
            factor.btran(&cb, &mut y);
            assert!(y.iter().all(|&v| v == 0.0), "{kind:?}: btran zeros");
            let mut rho = vec![f64::NAN; m];
            factor.btran_unit(2, &mut rho);
            assert!(rho.iter().all(|&v| v == 0.0), "{kind:?}: btran_unit zeros");
            let mut w = vec![f64::NAN; m];
            factor.ftran_dense(&cb, &mut w);
            assert!(w.iter().all(|&v| v == 0.0), "{kind:?}: ftran_dense zeros");
            let mut w2 = vec![f64::NAN; m];
            factor.ftran_sparse(&[(1, 1.0)], &mut w2);
            assert!(w2.iter().all(|&v| v == 0.0), "{kind:?}: ftran_sparse zeros");

            // and the factorization recovers on the next successful refactor
            assert!(factor.refactor(m, &good), "{kind:?}: recovers");
            assert_eq!(factor.num_rows(), m);
            let mut w3 = vec![0.0f64; m];
            factor.ftran_dense(&cb, &mut w3);
            let bw = apply_b(m, &good, &w3);
            for r in 0..m {
                assert!((bw[r] - cb[r]).abs() < 1e-8, "{kind:?}: row {r}");
            }
        }
    }

    /// FT-updated factors must agree with a from-scratch refactorization of
    /// the same (updated) basis columns through a *long* pivot sequence —
    /// the invariant the debug-assertions check in the simplex core also
    /// enforces per scheduled refactor.
    #[test]
    fn forrest_tomlin_long_sequence_matches_fresh_refactor() {
        for seed in [5u64, 17, 23] {
            let m = 24;
            let mut cols = random_basis(seed, m);
            let mut ft = ForrestTomlinLu::default();
            assert!(ft.refactor(m, &cols));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut applied = 0usize;
            let mut w = vec![0.0f64; m];
            while applied < 40 {
                let mut e: SparseColumn = Vec::new();
                for r in 0..m {
                    if rng.random_range(0.0..1.0) < 0.3 {
                        e.push((r, rng.random_range(-2.0..2.0)));
                    }
                }
                e.push((rng.random_range(0..m), 2.5));
                ft.ftran_sparse(&e, &mut w);
                let l = (0..m)
                    .max_by(|&a, &b| w[a].abs().partial_cmp(&w[b].abs()).unwrap())
                    .unwrap();
                if w[l].abs() < 1e-4 || !ft.update(l, &w) {
                    continue;
                }
                cols[l] = e;
                applied += 1;
                if applied.is_multiple_of(10) {
                    // compare the updated factors against a fresh refactor
                    let mut fresh = ForrestTomlinLu::default();
                    assert!(fresh.refactor(m, &cols));
                    let rhs: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
                    let mut w_upd = vec![0.0f64; m];
                    let mut w_fresh = vec![0.0f64; m];
                    ft.ftran_dense(&rhs, &mut w_upd);
                    fresh.ftran_dense(&rhs, &mut w_fresh);
                    for i in 0..m {
                        assert!(
                            (w_upd[i] - w_fresh[i]).abs() < 1e-6,
                            "seed {seed}: ftran drift {} at {i} after {applied} updates",
                            (w_upd[i] - w_fresh[i]).abs()
                        );
                    }
                    let mut y_upd = vec![0.0f64; m];
                    let mut y_fresh = vec![0.0f64; m];
                    ft.btran(&rhs, &mut y_upd);
                    fresh.btran(&rhs, &mut y_fresh);
                    for i in 0..m {
                        assert!(
                            (y_upd[i] - y_fresh[i]).abs() < 1e-6,
                            "seed {seed}: btran drift at {i} after {applied} updates"
                        );
                    }
                }
            }
            assert_eq!(ft.updates_since_refactor(), 40);
        }
    }

    #[test]
    fn eta_capacity_forces_refactor() {
        let m = 4;
        let cols = random_basis(11, m);
        let mut lu = SparseLu::default();
        assert!(lu.refactor(m, &cols));
        // dense updates: each eta holds ~m entries; the capacity 4m + 64
        // must trip in bounded time
        let w: Vec<f64> = (0..m).map(|r| 1.0 + r as f64 * 0.1).collect();
        let mut declined = false;
        for _ in 0..200 {
            if !lu.update(0, &w) {
                declined = true;
                break;
            }
        }
        assert!(declined, "eta file must eventually decline updates");
    }

    /// Block size of [`block_basis`] (coupling never crosses a block).
    const BLOCK: usize = 6;

    /// A block-diagonal locally-coupled basis: diagonal dominance plus a
    /// few entries inside the column's own 6-row block. Unlike
    /// `random_basis`, whose uniformly random structure makes almost every
    /// triangular reach dense (even a plain band chains structurally to the
    /// end of the matrix), disconnected blocks keep the solve-graph reach
    /// genuinely bounded — the regime the hyper-sparse path exists for, and
    /// the shape auction LPs (mostly-slack bases, few-row bundle columns)
    /// actually have.
    fn block_basis(seed: u64, m: usize) -> Vec<SparseColumn> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|c| {
                let base = c - (c % BLOCK);
                let width = BLOCK.min(m - base);
                let mut col: SparseColumn = vec![(c, 2.0 + rng.random_range(0.0..3.0))];
                for _ in 0..2 {
                    let r = base + rng.random_range(0..width);
                    if r != c {
                        col.push((r, rng.random_range(-0.4..0.4)));
                    }
                }
                col
            })
            .collect()
    }

    /// Asserts the indexed result equals the dense reference: every dense
    /// value matches, and (when sparse) the pattern covers every nonzero.
    fn assert_sv_matches(sv: &SparseVector, dense: &[f64], tol: f64, ctx: &str) {
        assert_eq!(sv.len(), dense.len(), "{ctx}: length");
        for (i, &dv) in dense.iter().enumerate() {
            assert!(
                (sv.value(i) - dv).abs() <= tol,
                "{ctx}: value {i}: {} vs {dv}",
                sv.value(i)
            );
        }
        if sv.is_sparse() {
            let mut inpat = vec![false; dense.len()];
            for &i in sv.pattern() {
                inpat[i] = true;
            }
            for (i, &dv) in dense.iter().enumerate() {
                assert!(
                    dv.abs() <= tol || inpat[i],
                    "{ctx}: nonzero {i} missing from pattern"
                );
            }
        }
    }

    /// Hyper-sparse FTRAN/BTRAN must equal the dense kernels — exact
    /// indices, values within tolerance — on fresh factors and through a
    /// pivot-update sequence, for every representation.
    #[test]
    fn sparse_into_matches_dense_kernels() {
        for seed in 0..8u64 {
            let m = 40 + 20 * (seed as usize % 4);
            let mut cols = block_basis(seed.wrapping_mul(71) + 3, m);
            for factor in [
                &mut ProductFormInverse::default() as &mut dyn BasisFactorization,
                &mut SparseLu::default(),
                &mut ForrestTomlinLu::default(),
            ] {
                let kind = factor.kind();
                assert!(factor.refactor(m, &cols), "{kind:?}: refactor");
                let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
                let mut w_sv = SparseVector::zeros(m);
                let mut rho_sv = SparseVector::zeros(m);
                let mut pivots = 0usize;
                for round in 0..30 {
                    // block-local sparse rhs (1–3 entries) so the
                    // hyper-sparse path is actually the one exercised
                    let anchor = rng.random_range(0..m);
                    let base = anchor - (anchor % BLOCK);
                    let width = BLOCK.min(m - base);
                    let mut e: SparseColumn = vec![(anchor, 2.5)];
                    for _ in 0..2 {
                        if rng.random_range(0.0..1.0) < 0.7 {
                            let r = base + rng.random_range(0..width);
                            e.push((r, rng.random_range(-2.0..2.0)));
                        }
                    }
                    let mut w_dense = vec![f64::NAN; m];
                    factor.ftran_sparse(&e, &mut w_dense);
                    factor.ftran_sparse_into(&e, &mut w_sv);
                    assert_sv_matches(&w_sv, &w_dense, 1e-7, &format!("{kind:?} ftran r{round}"));

                    let r = rng.random_range(0..m);
                    let mut rho_dense = vec![f64::NAN; m];
                    factor.btran_unit(r, &mut rho_dense);
                    factor.btran_unit_into(r, &mut rho_sv);
                    assert_sv_matches(
                        &rho_sv,
                        &rho_dense,
                        1e-7,
                        &format!("{kind:?} btran r{round}"),
                    );

                    // pivot through the sparse seam every few rounds so the
                    // eta/spike paths get covered too
                    if round % 3 == 0 {
                        let l = (0..m)
                            .max_by(|&a, &b| {
                                w_sv.value(a)
                                    .abs()
                                    .partial_cmp(&w_sv.value(b).abs())
                                    .unwrap()
                            })
                            .unwrap();
                        if w_sv.value(l).abs() > 1e-4 && factor.update_sparse(l, &w_sv) {
                            cols[l] = e;
                            pivots += 1;
                        }
                    }
                }
                assert!(pivots > 0, "{kind:?}: sequence never pivoted");
                if kind != BasisKind::ProductForm {
                    let stats = factor.sparsity_stats();
                    assert!(
                        stats.ftran_sparse > 0 && stats.btran_sparse > 0,
                        "{kind:?}: hyper-sparse path never taken: {stats:?}"
                    );
                    assert!(stats.avg_density() < 1.0, "{kind:?}: density not tracked");
                }
                // refactor from the updated columns and re-check once more
                assert!(factor.refactor(m, &cols), "{kind:?}: re-refactor");
                let e = vec![(m / 2, 1.0)];
                let mut w_dense = vec![f64::NAN; m];
                factor.ftran_sparse(&e, &mut w_dense);
                factor.ftran_sparse_into(&e, &mut w_sv);
                assert_sv_matches(&w_sv, &w_dense, 1e-7, &format!("{kind:?} post-refactor"));
            }
        }
    }

    /// Dense results (above the density cutoff) must come back marked dense
    /// and still be correct — exercised with a deliberately dense rhs.
    #[test]
    fn sparse_into_falls_back_dense_above_cutoff() {
        let m = 60;
        let cols = random_basis(21, m);
        let mut lu = SparseLu::default();
        assert!(lu.refactor(m, &cols));
        let e: SparseColumn = (0..m).map(|r| (r, 1.0 + 0.01 * r as f64)).collect();
        let mut w_dense = vec![f64::NAN; m];
        lu.ftran_sparse(&e, &mut w_dense);
        let mut w_sv = SparseVector::zeros(m);
        lu.ftran_sparse_into(&e, &mut w_sv);
        assert!(!w_sv.is_sparse(), "a full rhs must take the dense fallback");
        assert_sv_matches(&w_sv, &w_dense, 1e-9, "dense fallback");
        let stats = lu.sparsity_stats();
        assert!(stats.ftran_dense > 0, "fallback must be counted: {stats:?}");
    }

    /// The empty state (failed refactor) answers the indexed entry points
    /// with all-zero vectors of the caller's length.
    #[test]
    fn sparse_into_empty_state_writes_zeros() {
        let m = 6;
        let mut singular = random_basis(11, m);
        singular[3] = singular[4].clone();
        for factor in [
            &mut ProductFormInverse::default() as &mut dyn BasisFactorization,
            &mut SparseLu::default(),
            &mut ForrestTomlinLu::default(),
        ] {
            let kind = factor.kind();
            assert!(!factor.refactor(m, &singular), "{kind:?}");
            let mut w = SparseVector::zeros(m);
            factor.ftran_sparse_into(&[(1, 1.0)], &mut w);
            assert_eq!(w.len(), m, "{kind:?}: keeps length");
            assert!(w.values().iter().all(|&v| v == 0.0), "{kind:?}: zeros");
            let mut rho = SparseVector::zeros(m);
            factor.btran_unit_into(2, &mut rho);
            assert!(rho.values().iter().all(|&v| v == 0.0), "{kind:?}: zeros");
        }
    }

    /// Sparse FT updates (spike built from the image's support) must track a
    /// fresh refactorization through a long random pivot sequence, exactly
    /// like the dense-update variant of this test above — across many
    /// rebuilds, each factorizing the basis the previous updates produced.
    #[test]
    fn forrest_tomlin_long_sparse_sequence_matches_fresh_refactor() {
        for seed in [9u64, 31, 47] {
            let m = 48;
            let mut cols = block_basis(seed, m);
            let mut ft = ForrestTomlinLu::default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut w = SparseVector::zeros(m);
            for _rebuild in 0..6 {
                assert!(ft.refactor(m, &cols));
                let mut applied = 0usize;
                let mut guard = 0usize;
                while applied < 40 {
                    guard += 1;
                    assert!(guard < 4000, "seed {seed}: pivot sequence stalled");
                    let anchor = rng.random_range(0..m);
                    let base = anchor - (anchor % BLOCK);
                    let width = BLOCK.min(m - base);
                    let mut e: SparseColumn = vec![(anchor, 2.5)];
                    for _ in 0..3 {
                        if rng.random_range(0.0..1.0) < 0.6 {
                            let r = base + rng.random_range(0..width);
                            e.push((r, rng.random_range(-2.0..2.0)));
                        }
                    }
                    ft.ftran_sparse_into(&e, &mut w);
                    let l = (0..m)
                        .max_by(|&a, &b| w.value(a).abs().partial_cmp(&w.value(b).abs()).unwrap())
                        .unwrap();
                    if w.value(l).abs() < 1e-4 || !ft.update_sparse(l, &w) {
                        continue;
                    }
                    cols[l] = e;
                    applied += 1;
                    if applied.is_multiple_of(10) {
                        let mut fresh = ForrestTomlinLu::default();
                        assert!(fresh.refactor(m, &cols));
                        let rhs: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
                        let mut w_upd = vec![0.0f64; m];
                        let mut w_fresh = vec![0.0f64; m];
                        ft.ftran_dense(&rhs, &mut w_upd);
                        fresh.ftran_dense(&rhs, &mut w_fresh);
                        for i in 0..m {
                            assert!(
                                (w_upd[i] - w_fresh[i]).abs() < 1e-6,
                                "seed {seed}: sparse-update ftran drift {} at {i} after {applied}",
                                (w_upd[i] - w_fresh[i]).abs()
                            );
                        }
                        // and the hyper-sparse solves drift no further than the
                        // dense ones
                        let r = rng.random_range(0..m);
                        let mut rho_dense = vec![0.0f64; m];
                        ft.btran_unit(r, &mut rho_dense);
                        let mut rho_sv = SparseVector::zeros(m);
                        ft.btran_unit_into(r, &mut rho_sv);
                        assert_sv_matches(&rho_sv, &rho_dense, 1e-7, "mid-sequence btran");
                    }
                }
                assert_eq!(ft.updates_since_refactor(), 40);
            }
        }
    }
}
