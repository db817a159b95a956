// lint: soa-module
use crate::{lane_dispatch, multiversioned, LinalgError};

/// Pivot magnitude below which a lane's matrix is declared singular.
/// Must match `lu::SINGULARITY_THRESHOLD` so a batched factorization fails
/// on exactly the inputs that the scalar [`crate::LuFactor`] rejects.
const SINGULARITY_THRESHOLD: f64 = 1e-300;

/// Deterministic fault hook, mirroring the scalar `lu` module: one
/// thread-local read when no plan is installed.
fn injected_fault(site: shc_fault::Site) -> Option<LinalgError> {
    let kind = shc_fault::check(site)?;
    shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
    let value = match kind {
        shc_fault::FaultKind::NanResidual => f64::NAN,
        _ => 0.0,
    };
    Some(LinalgError::Singular { pivot: 0, value })
}

/// Sentinel in the singularity scratch: "no singular column found".
const NO_SINGULARITY: usize = usize::MAX;

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Factors `b` packed `n×n` systems at once from element-major `a`
    /// (`a[(i·n+j)·b + l]` is entry `(i,j)` of lane `l`), writing factors
    /// into `lu` and row permutations into `perm` (same layouts).
    ///
    /// Every lane runs the exact `LuFactor::factor_in_place` operation
    /// sequence — same strict-`>` pivot selection, same exact-zero
    /// elimination skip spelled as a select so divergent lanes stay in the
    /// vector loop — so each lane's factors are bitwise identical to a
    /// scalar factorization of that lane alone. Lanes that hit a singular
    /// pivot record the first offending column in `sing_k`/`sing_val` and
    /// keep streaming through the remaining arithmetic on garbage values;
    /// callers must treat their factors as unspecified.
    fn factor_kernel(
        lu: &mut [f64],
        perm: &mut [usize],
        piv_mag: &mut [f64],
        piv_row: &mut [usize],
        sing_k: &mut [usize],
        sing_val: &mut [f64],
        n: usize,
        b: usize,
    ) {
        lane_dispatch!(b, factor_impl(lu, perm, piv_mag, piv_row, sing_k, sing_val, n));
    }
}

// lint: soa-kernel
/// [`factor_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn factor_impl(
    lu: &mut [f64],
    perm: &mut [usize],
    piv_mag: &mut [f64],
    piv_row: &mut [usize],
    sing_k: &mut [usize],
    sing_val: &mut [f64],
    n: usize,
    b: usize,
) {
    {
        for i in 0..n {
            for p in perm[i * b..(i + 1) * b].iter_mut() {
                *p = i;
            }
        }
        for s in sing_k.iter_mut() {
            *s = NO_SINGULARITY;
        }
        for k in 0..n {
            // Partial-pivot scan down column k, all lanes at once. The
            // strict `>` matches the scalar loop, so ties resolve to the
            // same row and NaN magnitudes never displace the incumbent.
            // (Slice windows, not indexed accesses: the bounds checks of
            // `lu[off + l]` defeat cross-lane autovectorization.)
            let kk = (k * n + k) * b;
            {
                let col = &lu[kk..kk + b];
                for ((pm, pr), v) in piv_mag.iter_mut().zip(piv_row.iter_mut()).zip(col.iter()) {
                    *pm = v.abs();
                    *pr = k;
                }
            }
            for i in (k + 1)..n {
                let ik = (i * n + k) * b;
                let col = &lu[ik..ik + b];
                for ((pm, pr), v) in piv_mag.iter_mut().zip(piv_row.iter_mut()).zip(col.iter()) {
                    // Selects, not a branch: per-lane pivot outcomes are
                    // data-dependent and would mispredict constantly.
                    let mag = v.abs();
                    let gt = mag > *pm;
                    *pm = if gt { mag } else { *pm };
                    *pr = if gt { i } else { *pr };
                }
            }
            // Latch the first singular column per lane; the scalar path
            // returns here, we keep streaming so healthy lanes proceed.
            for l in 0..b {
                if (piv_mag[l] < SINGULARITY_THRESHOLD || !piv_mag[l].is_finite())
                    && sing_k[l] == NO_SINGULARITY
                {
                    sing_k[l] = k;
                    sing_val[l] = piv_mag[l];
                }
            }
            // Row swaps are pure data movement and cannot perturb any
            // lane's arithmetic. Lanes are parameter perturbations of one
            // topology, so they almost always agree on the pivot row —
            // fast-path that case with contiguous whole-window swaps; fall
            // back to the per-lane strided swap only when lanes diverge.
            let pr0 = piv_row[0];
            if piv_row.iter().all(|pr| *pr == pr0) {
                if pr0 != k {
                    let (lo, hi) = (k.min(pr0), k.max(pr0));
                    let (head, tail) = lu.split_at_mut(hi * n * b);
                    let row_lo = &mut head[lo * n * b..(lo + 1) * n * b];
                    let row_hi = &mut tail[..n * b];
                    row_lo.swap_with_slice(row_hi);
                    let (phead, ptail) = perm.split_at_mut(hi * b);
                    phead[lo * b..(lo + 1) * b].swap_with_slice(&mut ptail[..b]);
                }
            } else {
                for (l, &pr) in piv_row.iter().enumerate().take(b) {
                    if pr != k {
                        for j in 0..n {
                            lu.swap((k * n + j) * b + l, (pr * n + j) * b + l);
                        }
                        perm.swap(k * b + l, pr * b + l);
                    }
                }
            }
            // Elimination update: the O(n²) bulk, vectorized across lanes.
            // `split_at_mut` separates pivot row `k` (read) from target row
            // `i` (written), giving the two disjoint windows the lane loops
            // stream through without bounds checks.
            let row_k0 = k * n * b;
            for i in (k + 1)..n {
                let (head, tail) = lu.split_at_mut(i * n * b);
                let row_k = &head[row_k0..row_k0 + n * b];
                let row_i = &mut tail[..n * b];
                let pivots = &row_k[k * b..(k + 1) * b];
                let rik = &mut row_i[k * b..(k + 1) * b];
                for ((f, rv), pv) in piv_mag.iter_mut().zip(rik.iter_mut()).zip(pivots.iter()) {
                    let m = *rv / *pv;
                    *f = m;
                    *rv = m;
                }
                let uk = &row_k[(k + 1) * b..];
                let ui = &mut row_i[(k + 1) * b..n * b];
                for (ui_c, uk_c) in ui.chunks_exact_mut(b).zip(uk.chunks_exact(b)) {
                    for ((o, u), f) in ui_c.iter_mut().zip(uk_c.iter()).zip(piv_mag.iter()) {
                        let old = *o;
                        let updated = old - *f * *u;
                        // The scalar path's exact-zero sparsity skip, as a
                        // select: `old − 0·u` could flip `-0.0` or make
                        // NaN from an infinite `u`, so keep `old` exactly.
                        // lint: allow(float-eq, reason = "exact-zero skip replicates the scalar elimination fast path bitwise")
                        *o = if *f != 0.0 { updated } else { old };
                    }
                }
            }
        }
    }
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Solves all lanes' `A·x = rhs` from factors in element-major `lu` /
    /// `perm`: permutation gather, then forward and back substitution in
    /// the scalar `solve` order, vectorized across lanes.
    fn solve_kernel(
        out: &mut [f64],
        lu: &[f64],
        perm: &[usize],
        rhs: &[f64],
        n: usize,
        b: usize,
    ) {
        lane_dispatch!(b, solve_impl(out, lu, perm, rhs, n));
    }
}

// lint: soa-kernel
/// [`solve_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[inline(always)]
fn solve_impl(out: &mut [f64], lu: &[f64], perm: &[usize], rhs: &[f64], n: usize, b: usize) {
    {
        // Per-lane permutation gather — data movement only.
        for i in 0..n {
            for l in 0..b {
                out[i * b + l] = rhs[perm[i * b + l] * b + l];
            }
        }
        // Forward-substitute L·y = P·rhs (unit diagonal). `split_at_mut`
        // separates already-solved rows (read) from row `i` (written);
        // lane loops run over fixed-length windows, bounds-check-free.
        for i in 1..n {
            let (done, rest) = out.split_at_mut(i * b);
            let xi = &mut rest[..b];
            let lrow = &lu[i * n * b..(i * n + i) * b];
            for (xj, lw) in done.chunks_exact(b).zip(lrow.chunks_exact(b)) {
                for ((o, lv), xv) in xi.iter_mut().zip(lw.iter()).zip(xj.iter()) {
                    *o -= lv * xv;
                }
            }
        }
        // Back-substitute U·x = y.
        for i in (0..n).rev() {
            let (head, tail) = out.split_at_mut((i + 1) * b);
            let xi = &mut head[i * b..];
            let lrow = &lu[i * n * b..(i + 1) * n * b];
            let urow = &lrow[(i + 1) * b..];
            for (xj, uw) in tail.chunks_exact(b).zip(urow.chunks_exact(b)) {
                for ((o, uv), xv) in xi.iter_mut().zip(uw.iter()).zip(xj.iter()) {
                    *o -= uv * xv;
                }
            }
            let di = &lrow[i * b..(i + 1) * b];
            for (o, d) in xi.iter_mut().zip(di.iter()) {
                *o /= *d;
            }
        }
    }
}

/// Structure-of-arrays batched dense LU: `lanes` same-dimension systems
/// factored and solved *simultaneously*, with every buffer element-major
/// (`buf[element·lanes + lane]`) so the elimination and substitution loops
/// vectorize across lanes.
///
/// This is the linear-solve substrate of the lockstep batched transient
/// engine, for its Newton steps and its sensitivity recursion alike. It
/// runs every lane through each numeric stage unconditionally — retired
/// lanes stream garbage that costs a vector slot but is never read —
/// while telemetry counts and fault draws follow only the caller's active
/// mask, preserving the scalar path's per-lane draw cadence.
///
/// Per lane, the arithmetic replicates [`crate::LuFactor`] operation for
/// operation (same pivot selection, singularity threshold, exact-zero
/// elimination skip, and substitution order), so active lanes' solutions
/// are bitwise identical to the scalar path on the same inputs.
#[derive(Debug, Clone)]
pub struct SoaLu {
    /// Matrix dimension shared by every lane.
    n: usize,
    /// Number of lanes.
    lanes: usize,
    /// Packed L/U factors, `n·n·lanes`, element-major.
    /// soa: element-major, scratch
    lu: Vec<f64>,
    /// Row permutations, `n·lanes`, element-major.
    /// soa: element-major, scratch
    perm: Vec<usize>,
    /// Pivot-scan / multiplier scratch, one slot per lane.
    piv_mag: Vec<f64>,
    /// Pivot-row scratch, one slot per lane.
    piv_row: Vec<usize>,
    /// First singular column per lane ([`NO_SINGULARITY`] = healthy).
    sing_k: Vec<usize>,
    /// Pivot magnitude at the singular column per lane.
    sing_val: Vec<f64>,
}

impl SoaLu {
    /// Allocates factor storage and scratch for `lanes` systems of
    /// dimension `n`.
    ///
    /// effects: alloc
    pub fn new(lanes: usize, n: usize) -> Self {
        SoaLu {
            n,
            lanes,
            lu: vec![0.0; n * n * lanes],
            perm: vec![0; n * lanes],
            piv_mag: vec![0.0; lanes],
            piv_row: vec![0; lanes],
            sing_k: vec![NO_SINGULARITY; lanes],
            sing_val: vec![0.0; lanes],
        }
    }

    /// Matrix dimension shared by every lane.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The element-major `n·n·lanes` factor buffer, for staging: callers
    /// may assemble the matrices to factor directly here and then call
    /// [`SoaLu::factor_all_in_place`], skipping a copy. After a
    /// factorization the buffer holds the packed L/U factors.
    pub fn matrix(&self) -> &[f64] {
        &self.lu
    }

    /// Mutable staging access to the factor buffer (see
    /// [`SoaLu::matrix`]). Writing here invalidates any previous
    /// factorization.
    pub fn matrix_mut(&mut self) -> &mut [f64] {
        &mut self.lu
    }

    /// Factors every lane from element-major `a` (`n·n·lanes`), reusing
    /// the internal storage (allocation-free).
    ///
    /// Numerics run on *all* lanes; telemetry counts, fault draws, and
    /// `errs` reporting follow `active` so masked-out lanes neither
    /// consume fault-plan draws nor overwrite caller state. For an active
    /// lane, `errs[l]` is set to the same [`LinalgError::Singular`] the
    /// scalar path would have returned (first singular column wins, and an
    /// injected fault preempts the numeric verdict); its factors are then
    /// unspecified — refactor the lane before the next solve.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `active`, or `errs` disagree with the constructed
    /// `lanes`/`n` (engine-internal buffers, not user input).
    ///
    /// effects: none
    // lint: hot-fn
    pub fn factor_all(&mut self, a: &[f64], active: &[bool], errs: &mut [Option<LinalgError>]) {
        assert_eq!(
            a.len(),
            self.n * self.n * self.lanes,
            "element-major matrix block"
        );
        self.lu.copy_from_slice(a);
        self.factor_all_in_place(active, errs);
    }

    /// Factors every lane from matrices the caller staged into
    /// [`SoaLu::matrix_mut`] — [`SoaLu::factor_all`] without the input
    /// copy, for hot paths that assemble straight into the factor buffer.
    ///
    /// effects: none
    // lint: hot-fn
    pub fn factor_all_in_place(&mut self, active: &[bool], errs: &mut [Option<LinalgError>]) {
        let (n, b) = (self.n, self.lanes);
        assert_eq!(active.len(), b, "active mask");
        assert_eq!(errs.len(), b, "error slots");
        // Per-active-lane draw cadence first, in lane order — identical to
        // a sequence of scalar `factor` calls over the active lanes.
        for (l, err) in errs.iter_mut().enumerate() {
            if !active[l] {
                continue;
            }
            shc_obs::count(shc_obs::Metric::LuRefactors, 1);
            if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
                *err = Some(e);
            }
        }
        factor_kernel(
            &mut self.lu,
            &mut self.perm,
            &mut self.piv_mag,
            &mut self.piv_row,
            &mut self.sing_k,
            &mut self.sing_val,
            n,
            b,
        );
        for (l, err) in errs.iter_mut().enumerate() {
            if active[l] && err.is_none() && self.sing_k[l] != NO_SINGULARITY {
                *err = Some(LinalgError::Singular {
                    pivot: self.sing_k[l],
                    value: self.sing_val[l],
                });
            }
        }
    }

    /// Solves every lane's `A·x = rhs` (both element-major, `n·lanes`)
    /// from the last `factor_all`.
    ///
    /// Numerics run on all lanes; telemetry and fault draws follow
    /// `active` exactly as in [`SoaLu::factor_all`]. An active lane whose
    /// draw injects a fault gets `errs[l]` set and its `x` block is
    /// unspecified.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `lanes`/`n`.
    ///
    /// effects: none
    // lint: hot-fn
    pub fn solve_all(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        active: &[bool],
        errs: &mut [Option<LinalgError>],
    ) {
        let (n, b) = (self.n, self.lanes);
        assert_eq!(rhs.len(), n * b, "element-major rhs block");
        assert_eq!(x.len(), n * b, "element-major solution block");
        assert_eq!(active.len(), b, "active mask");
        assert_eq!(errs.len(), b, "error slots");
        for (l, err) in errs.iter_mut().enumerate() {
            if !active[l] {
                continue;
            }
            shc_obs::count(shc_obs::Metric::LuSolves, 1);
            if let Some(e) = injected_fault(shc_fault::Site::LuSolve) {
                *err = Some(e);
            }
        }
        solve_kernel(x, &self.lu, &self.perm, rhs, n, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LuFactor, Matrix, Vector};

    /// Interleaves per-lane row-major matrices (rows of `n·n`) into one
    /// element-major block.
    fn interleave(mats: &[Vec<f64>]) -> Vec<f64> {
        let b = mats.len();
        let nn = mats[0].len();
        let mut out = vec![0.0; nn * b];
        for (l, m) in mats.iter().enumerate() {
            for (idx, v) in m.iter().enumerate() {
                out[idx * b + l] = *v;
            }
        }
        out
    }

    fn flat(m: &Matrix) -> Vec<f64> {
        let (rows, cols) = m.shape();
        let mut out = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                out.push(m[(i, j)]);
            }
        }
        out
    }

    #[test]
    fn every_lane_is_bitwise_identical_to_scalar_lu() {
        // Pivoting, negative entries, wide magnitude spreads, and an
        // exact-zero multiplier (row 2 of the first matrix) — every lane
        // must match the scalar path to the last bit.
        let mats = [
            Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0], &[0.0, 8.0, 1.0]]).unwrap(),
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap(),
            Matrix::from_rows(&[&[1e-9, 1.0, 0.0], &[1.0, 1e9, 2.0], &[0.5, -3.0, 7.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 0.5, 0.25], &[0.5, 2.0, 0.125], &[0.25, 0.125, 3.0]])
                .unwrap(),
        ];
        let rhs = [
            [1.0, -2.0, 3.0],
            [0.25, 0.5, -0.125],
            [1e6, -1e-6, 2.0],
            [-7.0, 0.3, 0.9],
        ];
        let flats: Vec<Vec<f64>> = mats.iter().map(flat).collect();
        let a = interleave(&flats);
        let b_ems = {
            let rows: Vec<Vec<f64>> = rhs.iter().map(|r| r.to_vec()).collect();
            interleave(&rows)
        };
        let lanes = mats.len();
        let mut soa = SoaLu::new(lanes, 3);
        let active = vec![true; lanes];
        let mut errs = vec![None; lanes];
        soa.factor_all(&a, &active, &mut errs);
        assert!(errs.iter().all(Option::is_none), "all lanes factor");
        let mut x = vec![0.0; 3 * lanes];
        let mut errs = vec![None; lanes];
        soa.solve_all(&b_ems, &mut x, &active, &mut errs);
        assert!(errs.iter().all(Option::is_none));
        for (l, (m, r)) in mats.iter().zip(rhs.iter()).enumerate() {
            let scalar = LuFactor::new(m)
                .unwrap()
                .solve(&Vector::from_slice(r))
                .unwrap();
            for i in 0..3 {
                assert_eq!(
                    x[i * lanes + l].to_bits(),
                    scalar[i].to_bits(),
                    "lane {l} x[{i}] diverged"
                );
            }
        }
    }

    #[test]
    fn singular_lane_reports_and_healthy_lanes_survive() {
        let singular = vec![1.0, 2.0, 2.0, 4.0];
        let good = vec![2.0, 1.0, 1.0, 3.0];
        let a = interleave(&[singular, good.clone()]);
        let mut soa = SoaLu::new(2, 2);
        let active = [true, true];
        let mut errs = vec![None; 2];
        soa.factor_all(&a, &active, &mut errs);
        match &errs[0] {
            Some(LinalgError::Singular { pivot, .. }) => assert_eq!(*pivot, 1),
            other => panic!("expected Singular for lane 0, got {other:?}"),
        }
        assert!(errs[1].is_none(), "lane 1 unaffected");
        let rhs = interleave(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        let mut x = vec![0.0; 4];
        let mut errs = vec![None; 2];
        soa.solve_all(&rhs, &mut x, &active, &mut errs);
        let gm = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let scalar = LuFactor::new(&gm)
            .unwrap()
            .solve(&Vector::from_slice(&[3.0, 4.0]))
            .unwrap();
        assert_eq!(x[1].to_bits(), scalar[0].to_bits());
        assert_eq!(x[3].to_bits(), scalar[1].to_bits());
    }

    /// Satellite width-parity sweep: every lane count the engine can
    /// hand to [`lane_dispatch!`] — the literal arms 1/4/8/16 *and* the
    /// runtime-length fallback widths between them — must produce
    /// bitwise-scalar factors and solutions. A width arm whose body
    /// drifted from the others (the `kernel-equivalence` bug class)
    /// shows up here as a bit difference on exactly one width.
    #[test]
    fn every_dispatch_width_is_bitwise_identical_to_scalar_lu() {
        let n = 3;
        for lanes in 1..=16usize {
            // Per-lane variation: pivoting order and magnitudes differ
            // across lanes so a cross-lane mixup cannot cancel out.
            let mats: Vec<Matrix> = (0..lanes)
                .map(|l| {
                    let d = l as f64;
                    Matrix::from_rows(&[
                        &[0.5 + 0.25 * d, 1.0, 2.0 - 0.125 * d],
                        &[3.0, -4.0 + 0.5 * d, 5.0],
                        &[-1.0, 8.0, 1.0 + d],
                    ])
                    .unwrap()
                })
                .collect();
            let rhs: Vec<Vec<f64>> = (0..lanes)
                .map(|l| {
                    let d = l as f64;
                    vec![1.0 - d, -2.0 + 0.5 * d, 3.0 * (d + 1.0)]
                })
                .collect();
            let flats: Vec<Vec<f64>> = mats.iter().map(flat).collect();
            let a = interleave(&flats);
            let b_ems = interleave(&rhs);
            let mut soa = SoaLu::new(lanes, n);
            let active = vec![true; lanes];
            let mut errs = vec![None; lanes];
            soa.factor_all(&a, &active, &mut errs);
            assert!(errs.iter().all(Option::is_none), "width {lanes}: factor");
            let mut x = vec![0.0; n * lanes];
            let mut errs = vec![None; lanes];
            soa.solve_all(&b_ems, &mut x, &active, &mut errs);
            assert!(errs.iter().all(Option::is_none), "width {lanes}: solve");
            for (l, (m, r)) in mats.iter().zip(rhs.iter()).enumerate() {
                let scalar = LuFactor::new(m)
                    .unwrap()
                    .solve(&Vector::from_slice(r))
                    .unwrap();
                for i in 0..n {
                    assert_eq!(
                        x[i * lanes + l].to_bits(),
                        scalar[i].to_bits(),
                        "width {lanes} lane {l} x[{i}] diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn inactive_lanes_draw_no_faults_and_report_nothing() {
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuFactor),
            kind: shc_fault::FaultKind::SingularMatrix,
            seed: 7,
        };
        let injector = shc_fault::Injector::new(plan);
        let _guard = shc_fault::install_scoped(&injector);
        let a = interleave(&[vec![0.0, 0.0, 0.0, 0.0], vec![2.0, 0.0, 0.0, 2.0]]);
        let mut soa = SoaLu::new(2, 2);
        // Lane 0 is masked out: singular garbage, but neither a draw nor
        // an error report; lane 1 is active and takes the injected fault.
        let mut errs = vec![None; 2];
        soa.factor_all(&a, &[false, true], &mut errs);
        assert!(errs[0].is_none(), "inactive lane stays silent");
        assert!(matches!(errs[1], Some(LinalgError::Singular { .. })));
        assert_eq!(injector.injected(), 1, "exactly one (active-lane) draw");
    }

    #[test]
    fn refactor_reuses_storage_and_matches_scalar() {
        let a1 = vec![4.0, 1.0, 1.0, 3.0];
        let a2 = vec![0.0, 2.0, 5.0, 1.0];
        let mut soa = SoaLu::new(1, 2);
        let mut errs = vec![None; 1];
        soa.factor_all(&interleave(&[a1]), &[true], &mut errs);
        let mut errs = vec![None; 1];
        soa.factor_all(&interleave(std::slice::from_ref(&a2)), &[true], &mut errs);
        assert!(errs[0].is_none());
        let mut x = vec![0.0; 2];
        let mut errs = vec![None; 1];
        soa.solve_all(&[1.0, 2.0], &mut x, &[true], &mut errs);
        let m = Matrix::from_rows(&[&[0.0, 2.0], &[5.0, 1.0]]).unwrap();
        let scalar = LuFactor::new(&m)
            .unwrap()
            .solve(&Vector::from_slice(&[1.0, 2.0]))
            .unwrap();
        assert_eq!(x, scalar.as_slice());
    }
}
