//! Seeded lint-violation fixture: a figure bin reading an experiment
//! knob directly from the environment instead of through
//! `Knobs::from_env` — exactly the drift the
//! env-read-outside-benchenv rule bans. Not part of the workspace
//! build; `cargo xtask` tests scan it.

fn main() {
    let budget: u64 = std::env::var("BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    println!("{budget}");
}
