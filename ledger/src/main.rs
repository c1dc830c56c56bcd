//! `ledger` — the layered host-time benchmark (see `README.md`).
//!
//! ```text
//! ledger run [--seed N] [--workload NAME]... [--out FILE]
//! ledger bench --workload NAME --seed N --seconds S --trace 0|1
//! ledger compare --parent FILE... --change FILE...
//! ledger child spec|setup|serve|trace ...
//! ```

use smtsim_ledger::clock::Stamp;
use smtsim_ledger::json::Obj;
use smtsim_ledger::measure::{measure, Context, Length, Outcome};
use smtsim_ledger::workload::{by_name, hardware_threads, ledger_dir, Workload, WORKLOADS};
use smtsim_ledger::{child, compare, report};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  ledger run [--seed N] [--workload NAME]... [--out FILE]
  ledger bench --workload NAME --seed N --seconds S --trace 0|1
  ledger compare --parent FILE... --change FILE...";

/// The source tree's root (this package's parent directory).
fn root() -> PathBuf {
    ledger_dir()
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn context(seed: u64) -> Result<Context, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    Ok(Context {
        exe,
        work: root().join("target").join("ledger"),
        seed,
    })
}

fn write_trace(ctx: &Context, o: &Outcome) {
    if let Some(t) = &o.trace {
        let path = ctx.work.join(format!("trace-{}.json", o.workload.name));
        if let Err(e) = std::fs::write(&path, &t.raw) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// A flag's value, parsed.
fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    v.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} needs a valid value"))
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })
}

fn run(args: &[String]) -> Result<i32, String> {
    let mut seed = 42;
    let mut selected = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = value("--seed", it.next())?,
            "--workload" => selected.push(workload(&value::<String>("--workload", it.next())?)?),
            "--out" => out = Some(PathBuf::from(value::<String>("--out", it.next())?)),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if selected.is_empty() {
        selected = WORKLOADS.iter().collect();
    }
    let ctx = context(seed)?;
    let out = out.unwrap_or_else(|| ctx.work.join("run.json"));
    let t0 = Stamp::now();
    let mut entries = Obj::new();
    let mut failed = 0;
    for w in selected {
        let o = measure(&ctx, w, Length::Reps(w.reps), true);
        print!("{}", report::listing(&o));
        write_trace(&ctx, &o);
        failed += o.failed;
        entries = entries.raw(w.name, report::run_entry(&o));
    }
    let secs = t0.elapsed().as_secs_f64();
    let doc = Obj::new()
        .int("seed", seed)
        .int("hardware_threads", hardware_threads() as u64)
        .num("wall_s", secs)
        .raw("workloads", entries.finish())
        .finish();
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, doc + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "ledger run: seed {seed}, {secs:.1} s, {} — {}",
        out.display(),
        if failed == 0 {
            "every output correct".to_string()
        } else {
            format!("{failed} failed operation(s)")
        }
    );
    Ok(i32::from(failed > 0))
}

fn bench(args: &[String]) -> Result<i32, String> {
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => w = Some(workload(&value::<String>("--workload", it.next())?)?),
            "--seed" => seed = Some(value::<u64>("--seed", it.next())?),
            "--seconds" => seconds = Some(value::<f64>("--seconds", it.next())?),
            "--trace" => trace = Some(value::<u8>("--trace", it.next())? != 0),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (w, seed, seconds, trace) else {
        return Err("bench needs --workload, --seed, --seconds and --trace".into());
    };
    let ctx = context(seed)?;
    let o = measure(&ctx, w, Length::Seconds(seconds), trace);
    eprint!("{}", report::listing(&o));
    write_trace(&ctx, &o);
    println!("{}", report::result_line(&o, trace));
    Ok(0)
}

fn compare(args: &[String]) -> Result<i32, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side = None;
    for a in args {
        match a.as_str() {
            "--parent" => side = Some(true),
            "--change" => side = Some(false),
            f => match side {
                Some(true) => parent.push(PathBuf::from(f)),
                Some(false) => change.push(PathBuf::from(f)),
                None => return Err(format!("{f}: name --parent or --change first")),
            },
        }
    }
    print!(
        "{}",
        compare::compare(&parent, &change, &root().join("BENCHMARK.json"))?
    );
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("child") => Ok(child::main(rest)),
        Some("run") => run(rest),
        Some("bench") => bench(rest),
        Some("compare") => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    std::process::exit(result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }));
}
