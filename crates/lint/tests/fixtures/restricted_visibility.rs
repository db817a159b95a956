// Fixture: every function below can panic, and only the bare `pub` one
// is public API; `panic-reachability` must report it alone. Each
// restricted form stays inside its crate, free function and method alike.
// Linted as if it lived at crates/linalg/src/.

pub fn bare(x: Option<u8>) -> u8 {
    // lint: allow(no-panic, reason = "fixture: visibility is the subject")
    x.unwrap()
}

pub(crate) fn in_crate(x: Option<u8>) -> u8 {
    // lint: allow(no-panic, reason = "fixture: visibility is the subject")
    x.unwrap()
}

pub(super) fn in_parent(x: Option<u8>) -> u8 {
    // lint: allow(no-panic, reason = "fixture: visibility is the subject")
    x.unwrap()
}

pub(self) fn in_module(x: Option<u8>) -> u8 {
    // lint: allow(no-panic, reason = "fixture: visibility is the subject")
    x.unwrap()
}

pub(in crate::fixture) fn in_path(x: Option<u8>) -> u8 {
    // lint: allow(no-panic, reason = "fixture: visibility is the subject")
    x.unwrap()
}

pub struct Holder(Option<u8>);

impl Holder {
    pub(crate) fn crate_method(&self) -> u8 {
        // lint: allow(no-panic, reason = "fixture: visibility is the subject")
        self.0.unwrap()
    }
}
