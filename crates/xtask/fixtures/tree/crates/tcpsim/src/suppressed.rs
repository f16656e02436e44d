//! Fixture: suppression markers.

pub fn sequence(offset: u64) -> u32 {
    // lint:allow(cast-truncation): sequence space is modular by design
    let seq = offset as u32;
    seq.wrapping_add(1)
}

pub fn inline_marker(len: usize) -> u16 {
    len as u16 // lint:allow(cast-truncation): same-line marker form
}

pub fn unjustified(x: u64) -> u8 {
    // lint:allow(cast-truncation)
    x as u8
}
