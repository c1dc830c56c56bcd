//! Seeded lint-violation fixture: the core figure module wiring a ROB
//! scheme by hand instead of taking it from a committed spec — the
//! hand-wired figure functions the scheme-wiring-outside-registry rule
//! keeps out. Not part of the workspace build; `cargo xtask` tests
//! scan it.

pub fn fig1_config() -> RobConfig {
    RobConfig::Baseline(32)
}
