//! Fixture: a justified suppression whose line no longer triggers its
//! rule — the marker itself must be reported as stale.

pub fn calm() -> u64 {
    // lint:allow(cast-truncation): fixture marker with nothing left to excuse
    42
}
