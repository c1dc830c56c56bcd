//! Runner for `kind = "episodes"`: structured-trace dump and L2-miss
//! episode analytics over the spec's scheme set (see the `trace` bin
//! docs for the artifact contract).

use crate::BinError;
use smtsim_obs::{trace_jsonl, EpisodeSummary};
use smtsim_rob2::{ExperimentSpec, Knobs, SweepCell};
use std::fmt::Write as _;

pub(super) fn run(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = env.lab_for_spec(spec);
    let cells: Vec<SweepCell> = env
        .mixes
        .iter()
        .flat_map(|&m| spec.variants.iter().map(move |v| (m, v.config)))
        .collect();
    let results = lab.sweep_traced(&cells);

    let mut table = format!(
        "{}\n",
        spec.title.as_deref().expect("validated at parse time")
    );
    table.push_str(&smtsim_obs::summary_table_header());
    let mut jsonl = String::new();
    let mut failed = 0usize;
    for (&(m, cfg), r) in cells.iter().zip(&results) {
        let label = format!("Mix {m} {}", cfg.label());
        match r {
            Ok(traced) => {
                let summary = EpisodeSummary::from_episodes(&traced.episodes);
                table.push_str(&summary.render_row(&label));
                jsonl.push_str(&trace_jsonl(&traced.events));
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(table, "{label:<28} n/a ({})", e.kind());
            }
        }
    }

    print!("{table}");
    std::fs::create_dir_all("results")?;
    std::fs::write("results/episodes.txt", &table)?;
    eprintln!("results/episodes.txt ({} bytes)", table.len());
    std::fs::write("results/trace.jsonl", &jsonl)?;
    eprintln!(
        "results/trace.jsonl ({} bytes, {} cells)",
        jsonl.len(),
        results.len() - failed
    );
    if failed > 0 {
        return Err(BinError::Runtime(format!("{failed} cell(s) failed")));
    }
    Ok(())
}
