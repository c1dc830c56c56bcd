//! Replays the committed fuzz corpus (`tests/corpus/*.case` at the
//! workspace root) through the harness — the differential and the
//! protocol monitor — over every configuration the committed specs
//! render, fully offline.
//!
//! Every committed case must simulate and pass: a case the generator
//! lints skip, or a `Fail` verdict, is a regression.

use smtsim_conform::{committed_corpus, run_case, CaseVerdict};
use smtsim_rob2::committed_variants;

#[test]
fn committed_corpus_passes_the_differential() {
    let matrix = committed_variants().expect("committed specs load");
    let corpus = committed_corpus().expect("the corpus directory is committed");
    assert!(!corpus.is_empty(), "no committed .case files");
    for (name, spec) in corpus {
        let spec = spec.unwrap_or_else(|e| panic!("{name}: {e}"));
        match run_case(&spec, &matrix) {
            CaseVerdict::Pass { report } => {
                assert!(
                    report.commits_compared > 0,
                    "{name}: passed but compared nothing"
                );
                assert!(
                    report.traces_judged > 0,
                    "{name}: passed but judged no trace"
                );
            }
            CaseVerdict::Skipped { reason } => {
                panic!(
                    "{name}: committed corpus cases must simulate, but lints skipped it: {reason}"
                );
            }
            CaseVerdict::Fail { failure, shrunk } => {
                panic!("{name}: differential regression (shrunk to {shrunk:?}):\n{failure}");
            }
        }
    }
}
