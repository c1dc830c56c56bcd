//! The hardware-independent gate: a smoke-scale traced pass (Figure 2's
//! schemes on mixes 1 and 10, budget 2000, warm-up 2000) must simulate
//! exactly the committed cycle and commit counts, and its render must
//! equal the product's own output under the same knobs.

use smtsim_ledger::json::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

const KNOBS: [(&str, &str); 5] = [
    ("BUDGET", "2000"),
    ("WARMUP", "2000"),
    ("MIXES", "1,10"),
    ("SEED", "42"),
    ("SMTSIM_JOBS", "1"),
];

fn ledger_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn child(args: &[&str], cwd: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .arg("child")
        .args(args)
        .env_clear()
        .envs(KNOBS)
        .current_dir(cwd)
        .output()
        .expect("the ledger binary runs");
    assert!(
        out.status.success(),
        "ledger child {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The deterministic counters of a traced-pass report, one per line.
fn counters(report: &Json) -> String {
    let metric = |k: &str| {
        let v = report.get("metrics").and_then(|m| m.get(k));
        v.and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("report lacks integral {k}"))
    };
    let mut lines = vec!["{".to_string()];
    for k in [
        "core.cells",
        "core.norm_runs",
        "pipeline.sim_cycles",
        "pipeline.committed",
    ] {
        lines.push(format!("  \"{k}\": {},", metric(k)));
    }
    lines.push("  \"cells\": [".into());
    let cells = report.get("cells").and_then(Json::as_arr).expect("cells");
    for (i, c) in cells.iter().enumerate() {
        let num = |k: &str| c.get(k).and_then(Json::as_u64).expect("cell counter");
        let config = c.get("config").and_then(Json::as_str).expect("cell config");
        let comma = if i + 1 < cells.len() { "," } else { "" };
        lines.push(format!(
            "    {{\"mix\": {}, \"config\": \"{config}\", \"cycles\": {}, \"committed\": {}}}{comma}",
            num("mix"),
            num("cycles"),
            num("committed")
        ));
    }
    lines.push("  ]".into());
    lines.push("}".into());
    lines.join("\n") + "\n"
}

#[test]
fn smoke_traced_pass_repeats_the_committed_counters() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let spec = ledger_dir().join("../experiments/fig2.toml");
    let spec = spec.to_str().expect("UTF-8 path");
    let scratch_arg = scratch.to_str().expect("UTF-8 path");

    let raw = child(
        &["trace", "--deep", "--scratch", scratch_arg, spec],
        &scratch,
    );
    let report = parse_json(raw.trim()).expect("the report is JSON");
    let failures = report
        .get("failures")
        .and_then(Json::as_arr)
        .expect("failures");
    assert!(failures.is_empty(), "traced pass failed: {failures:?}");

    let got = counters(&report);
    let want_path = ledger_dir().join("expected/counters-smoke.json");
    let want = std::fs::read_to_string(&want_path).expect("expected/counters-smoke.json");
    assert_eq!(got, want, "counters drifted; got:\n{got}");

    let render = report
        .get("renders")
        .and_then(|r| r.get("fig2"))
        .and_then(Json::as_str)
        .expect("fig2 render");
    assert_eq!(render, child(&["spec", spec], &scratch));
}
