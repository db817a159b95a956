// Fixture: a checkpoint-adoption root that transitively reads skew
// state — the adopted prefix would no longer be skew-invariant.

struct SkewParams {
    tau_s: f64,
}

fn skew_offset(p: &SkewParams) -> f64 {
    p.tau_s
}

// lint: trunk-fence
fn adopt_prefix(p: &SkewParams, trunk: &mut [f64], src: &[f64]) {
    let off = skew_offset(p);
    for (t, s) in trunk.iter_mut().zip(src) {
        *t = s + off;
    }
}
