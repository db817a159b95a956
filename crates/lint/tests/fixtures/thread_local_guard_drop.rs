// Fixture: must trigger `thread-local-discipline` twice — a scope
// guard dropped as a bare statement and one bound to `_`.
// Linted as if it lived at crates/core/src/.

fn listen() {
    shc_obs::install_scoped(None);
    let _ = shc_fault::install_scoped(&injector);
}
