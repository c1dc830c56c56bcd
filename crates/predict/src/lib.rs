//! # smtsim-predict
//!
//! Hardware predictors for the two-level-ROB reproduction (Loew &
//! Ponomarev, ICPP 2008): the Table 1 front-end predictors (gshare and
//! BTB) and the paper's §4.2 Degree-of-Dependence predictors
//! (last-value, threshold-bit, and path-qualified designs). Table 1's
//! load-hit predictor is not built: it serves speculative wakeup and
//! replay, which the pipeline does not model.

pub mod btb;
pub mod dod;
pub mod gshare;

pub use btb::Btb;
pub use dod::{DodPredictor, LastValueDod, PathDod, ThresholdBitDod};
pub use gshare::Gshare;
