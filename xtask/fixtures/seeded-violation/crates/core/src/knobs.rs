//! Fixture counterpart: the designated env funnel. This path
//! (`crates/core/src/knobs.rs`) is the one file allowed to read the
//! process environment without an annotation.

pub fn knob(name: &str) -> Option<String> {
    std::env::var(name).ok()
}
