// Fixture: each allocation form sits alone in a hot-loop region, which
// makes its enclosing function a hot-path root; every root must fail
// `hot-path-certify` on `alloc`, and nothing else may fire.

pub fn ctor(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    // lint: hot-loop
    for &x in xs {
        let v: Vec<f64> = Vec::new();
        acc += x + v.len() as f64;
    }
    // lint: end-hot-loop
    acc
}

pub fn macro_call(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    // lint: hot-loop
    for &x in xs {
        let w = vec![x];
        acc += w.len() as f64;
    }
    // lint: end-hot-loop
    acc
}

pub fn method(xs: &[f64], w: &Scratch) -> f64 {
    let mut acc = 0.0;
    // lint: hot-loop
    for &x in xs {
        let copied = w.clone();
        acc += x + copied.len() as f64;
    }
    // lint: end-hot-loop
    acc
}

pub fn turbofish(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    // lint: hot-loop
    for &x in xs {
        let sized = Vec::<f64>::with_capacity(4);
        acc += x + sized.capacity() as f64;
    }
    // lint: end-hot-loop
    acc
}
