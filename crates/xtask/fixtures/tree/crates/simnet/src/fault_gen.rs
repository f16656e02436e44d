//! Fault-code fixture: RNG construction discipline in fault-injection
//! source files.

pub fn streams(seed: u64) {
    let _named = Pcg32::named(seed, "fault.loss");
    let _adhoc = Pcg32::new(seed, 7);
    // lint:allow(rng-streams): fixture justifies sharing the link stream
    let _justified = Pcg32::new(seed, 9);
}
