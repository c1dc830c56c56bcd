//! The spec runner: executes the experiment spec named by the
//! `SMTSIM_SPEC` environment variable (a path to a `*.toml` file —
//! committed under `experiments/` or anywhere else). Every table and
//! figure of the paper is regenerated this way:
//!
//! ```sh
//! SMTSIM_SPEC=experiments/fig2.toml \
//!     cargo run --release -p smtsim-bench --bin spec
//! ```
fn main() {
    smtsim_bench::run_bin(|| {
        let env = smtsim_rob2::Knobs::from_env()?;
        let Some(path) = env.spec else {
            return Err(smtsim_bench::BinError::Config(
                "SMTSIM_SPEC must name an experiment spec file (e.g. \
                 SMTSIM_SPEC=experiments/fig2.toml)"
                    .into(),
            ));
        };
        smtsim_bench::run_spec(&path)
    })
}
