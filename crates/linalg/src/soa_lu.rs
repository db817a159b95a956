use crate::{LinalgError, LuFactor, Matrix, Result, Vector};

/// Dense LU for `lanes` same-dimension systems stored element-major
/// (`buf[element·lanes + lane]`): each active lane's matrix is gathered
/// and factored by its own [`LuFactor`], and each solve runs through it,
/// so every lane's results, telemetry and fault draws are those of the
/// scalar path on that lane alone.
///
/// Retained for the benchmark of record, whose traced per-layer pass
/// times it (`soa_lu.*` metrics), until the benchmark drops those metrics
/// (ROADMAP item 3); no solver in the workspace uses it.
#[derive(Debug)]
pub struct SoaLu {
    /// Matrix dimension shared by every lane.
    n: usize,
    /// Number of lanes.
    lanes: usize,
    /// One lane's matrix, gathered for factoring.
    staged: Matrix,
    /// Each lane's factors, once it has been factored.
    factors: Vec<Option<LuFactor>>,
}

impl SoaLu {
    /// Allocates storage for `lanes` systems of dimension `n`.
    ///
    /// effects: alloc
    pub fn new(lanes: usize, n: usize) -> Self {
        SoaLu {
            n,
            lanes,
            staged: Matrix::zeros(n, n),
            factors: vec![None; lanes],
        }
    }

    /// Factors every active lane of element-major `a` (`n·n·lanes`). For
    /// an active lane, `errs[l]` is set to what [`LuFactor`] reports on
    /// that lane's matrix — `None` on success, a [`LinalgError::Singular`]
    /// or an injected fault otherwise — or to a
    /// [`LinalgError::ShapeMismatch`] when `a` has the wrong length. A
    /// lane whose factorization failed keeps no factors. Inactive lanes
    /// are untouched.
    pub fn factor_all(&mut self, a: &[f64], active: &[bool], errs: &mut [Option<LinalgError>]) {
        for (l, (err, &on)) in errs.iter_mut().zip(active).enumerate().take(self.lanes) {
            if on {
                *err = self.factor_lane(a, l).err();
            }
        }
    }

    fn factor_lane(&mut self, a: &[f64], l: usize) -> Result<()> {
        let (n, b) = (self.n, self.lanes);
        if a.len() != n * n * b {
            return Err(LinalgError::ShapeMismatch {
                op: "soa_lu_factor",
                lhs: (n * n, b),
                rhs: (a.len(), 1),
            });
        }
        for (k, &v) in a.iter().skip(l).step_by(b).enumerate() {
            self.staged[(k / n, k % n)] = v;
        }
        if let Some(slot) = self.factors.get_mut(l) {
            *slot = None;
            *slot = Some(LuFactor::new(&self.staged)?);
        }
        Ok(())
    }

    /// Solves every active lane's `A·x = rhs` (both element-major,
    /// `n·lanes`) from its last factorization. For an active lane,
    /// `errs[l]` is set to what [`LuFactor::solve_into`] reports, or to an
    /// error when the lane was never factored or a block has the wrong
    /// length. Inactive lanes are untouched.
    pub fn solve_all(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        active: &[bool],
        errs: &mut [Option<LinalgError>],
    ) {
        let (mut rhs_lane, mut x_lane) = (Vector::zeros(self.n), Vector::zeros(self.n));
        for (l, (err, &on)) in errs.iter_mut().zip(active).enumerate().take(self.lanes) {
            if on {
                *err = self.solve_lane(rhs, x, l, &mut rhs_lane, &mut x_lane).err();
            }
        }
    }

    fn solve_lane(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        l: usize,
        rhs_lane: &mut Vector,
        x_lane: &mut Vector,
    ) -> Result<()> {
        let (n, b) = (self.n, self.lanes);
        if rhs.len() != n * b || x.len() != n * b {
            return Err(LinalgError::ShapeMismatch {
                op: "soa_lu_solve",
                lhs: (n, b),
                rhs: (rhs.len().max(x.len()), 1),
            });
        }
        let Some(Some(lu)) = self.factors.get(l) else {
            return Err(LinalgError::InvalidInput {
                reason: "lane solved before it was factored",
            });
        };
        for (dst, &v) in rhs_lane.iter_mut().zip(rhs.iter().skip(l).step_by(b)) {
            *dst = v;
        }
        LuFactor::solve_into(lu, rhs_lane, x_lane)?;
        for (dst, &v) in x.iter_mut().skip(l).step_by(b).zip(x_lane.iter()) {
            *dst = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interleaves per-lane matrices into one element-major block.
    fn interleave(mats: &[Matrix]) -> Vec<f64> {
        let b = mats.len();
        let n = mats[0].rows();
        let mut out = vec![0.0; n * n * b];
        for (l, m) in mats.iter().enumerate() {
            for i in 0..n {
                for j in 0..n {
                    out[(i * n + j) * b + l] = m[(i, j)];
                }
            }
        }
        out
    }

    #[test]
    fn lanes_match_scalar_lu_and_report_their_own_errors() {
        let mats = [
            Matrix::from_rows(&[&[0.0, 1.0], &[3.0, 4.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap(),
            Matrix::from_rows(&[&[2.0, -1.0], &[1e-3, 5.0]]).unwrap(),
        ];
        let a = interleave(&mats);
        let rhs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut soa = SoaLu::new(3, 2);
        let active = [true, true, false];
        let mut errs = vec![None; 3];
        soa.factor_all(&a, &active, &mut errs);
        assert!(errs[0].is_none());
        assert!(matches!(errs[1], Some(LinalgError::Singular { .. })));
        let mut x = [0.0; 6];
        soa.solve_all(&rhs, &mut x, &[true, false, true], &mut errs);
        let want = mats[0]
            .lu()
            .unwrap()
            .solve(&Vector::from_slice(&[1.0, 4.0]))
            .unwrap();
        assert_eq!([x[0], x[3]], [want[0], want[1]]);
        assert!(matches!(errs[2], Some(LinalgError::InvalidInput { .. })));
        soa.solve_all(&rhs, &mut x, &[false, true, false], &mut errs);
        assert!(matches!(errs[1], Some(LinalgError::InvalidInput { .. })));
        soa.factor_all(&a[1..], &active, &mut errs);
        assert!(matches!(errs[0], Some(LinalgError::ShapeMismatch { .. })));
    }
}
