//! End-to-end differential proof for the `smtsim-serve` daemon
//! (DESIGN.md §17): two concurrent clients submit overlapping figure
//! specs — the committed `fig2` by registry id and an inline superset
//! of it — and every streamed figure must be **byte-identical** to
//! what the offline `spec` bin prints for the same spec under the
//! same knobs, at worker fan-outs of 1 and 4. The overlap cells must
//! be served from the content-addressed cache exactly once: the
//! daemon's hit/miss counters are asserted to the cell.
//!
//! All knobs reach the daemon and the offline reference through
//! `Command::env` on child processes — nothing here mutates this test
//! process's environment.

use smtsim_bench::serve_support as client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BUDGET: &str = "3000";
const WARMUP: &str = "1000";
const MIXES: &str = "1,2";

/// fig2's three schemes plus one more, same normalization reference:
/// lowers to the same cell universe, so its fig2-shaped cells must be
/// cache hits.
const SUPERSET_TOML: &str = "\
[experiment]
id = \"fig2_superset\"
title = \"Figure 2 superset\"
kind = \"figure\"
norm = \"baseline-32\"
schemes = [\"baseline-32\", \"baseline-128\", \"r-rob-16\", \"p-rob-5\"]
";

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smtsim-serve-e2e-{tag}-{}", std::process::id()))
}

/// A daemon child on a scratch socket, killed on drop so a failing
/// assertion never leaks a process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// A daemon under the file's knobs plus `knobs`.
    fn spawn(tag: &str, jobs: usize, cache: &Path, knobs: &[(&str, &str)]) -> Daemon {
        let socket = scratch(&format!("{tag}-jobs{jobs}")).with_extension("sock");
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .env_clear()
            .env("BUDGET", BUDGET)
            .env("WARMUP", WARMUP)
            .env("MIXES", MIXES)
            .envs(knobs.iter().copied())
            .env("SMTSIM_JOBS", jobs.to_string())
            .env("SMTSIM_SERVE_SOCKET", &socket)
            .env("SMTSIM_SERVE_CACHE", cache)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve bin spawns");
        let daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(lines) = client::request_lines(&daemon.socket, "{\"op\":\"ping\"}") {
                if lines
                    .last()
                    .is_some_and(|l| client::line_str(l, "type").as_deref() == Some("pong"))
                {
                    return daemon;
                }
            }
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn shutdown(mut self) {
        let _ = client::request_lines(&self.socket, "{\"op\":\"shutdown\"}");
        let status = self.child.wait().expect("daemon exits after shutdown");
        assert!(status.success(), "daemon exit after drain: {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The offline reference: the generic `spec` bin under the same knobs,
/// with a fresh result cache armed so its footer matches the daemon's
/// cache-backed render. Returns stdout — exactly the figure bytes.
fn offline_figure(spec_path: &Path, jobs: usize, tag: &str, knobs: &[(&str, &str)]) -> String {
    let cache = scratch(&format!("offline-{tag}-jobs{jobs}"));
    let _ = std::fs::remove_dir_all(&cache);
    let figure = offline_figure_on(spec_path, jobs, &cache, knobs);
    let _ = std::fs::remove_dir_all(&cache);
    figure
}

/// The generic `spec` bin with `SMTSIM_JOURNAL` naming `cache`, under
/// the file's knobs plus `knobs`.
fn offline_figure_on(
    spec_path: &Path,
    jobs: usize,
    cache: &Path,
    knobs: &[(&str, &str)],
) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_spec"))
        .env_clear()
        .env("BUDGET", BUDGET)
        .env("WARMUP", WARMUP)
        .env("MIXES", MIXES)
        .envs(knobs.iter().copied())
        .env("SMTSIM_JOBS", jobs.to_string())
        .env("SMTSIM_SPEC", spec_path)
        .env("SMTSIM_JOURNAL", cache)
        .output()
        .expect("spec bin runs");
    assert!(
        out.status.success(),
        "offline spec bin failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure text is UTF-8")
}

#[test]
fn concurrent_overlapping_clients_match_the_offline_bin_to_the_byte() {
    let superset_path = scratch("superset-spec").with_extension("toml");
    std::fs::write(&superset_path, SUPERSET_TOML).unwrap();
    let fig2_path = smtsim_bench::spec_dir().join("fig2.toml");

    for jobs in [1usize, 4] {
        let cache = scratch("differential-cache").join(format!("jobs{jobs}"));
        let _ = std::fs::remove_dir_all(&cache);
        let daemon = Daemon::spawn("differential", jobs, &cache, &[]);

        // Two clients race: fig2 by registry id, the superset inline.
        let socket_a = daemon.socket.clone();
        let a = std::thread::spawn(move || {
            client::request_lines(&socket_a, &client::submit_registry("fig2")).unwrap()
        });
        let socket_b = daemon.socket.clone();
        let b = std::thread::spawn(move || {
            client::request_lines(&socket_b, &client::submit_inline(SUPERSET_TOML)).unwrap()
        });
        let lines_a = a.join().expect("client A");
        let lines_b = b.join().expect("client B");

        // Streamed figures == offline `spec` bin output, byte for byte.
        assert_eq!(
            client::figure_of(&lines_a).unwrap(),
            offline_figure(&fig2_path, jobs, "fig2", &[]),
            "fig2 served bytes drifted from the offline bin at jobs={jobs}"
        );
        assert_eq!(
            client::figure_of(&lines_b).unwrap(),
            offline_figure(&superset_path, jobs, "superset", &[]),
            "superset served bytes drifted from the offline bin at jobs={jobs}"
        );

        // fig2: 3 schemes × 2 mixes = 6 cells; superset: 4 × 2 = 8.
        // The 6 overlap cells are computed once and hit once — however
        // the two requests interleave.
        let done_a = client::terminal_line(&lines_a, "done").unwrap();
        let done_b = client::terminal_line(&lines_b, "done").unwrap();
        let stat = |l: &str, f: &str| client::line_u64(l, f).unwrap();
        assert_eq!(stat(done_a, "cells"), 6);
        assert_eq!(stat(done_b, "cells"), 8);
        assert_eq!(
            stat(done_a, "cache_hits") + stat(done_b, "cache_hits"),
            6,
            "every overlap cell must be a hit"
        );
        assert_eq!(
            stat(done_a, "cache_misses") + stat(done_b, "cache_misses"),
            8,
            "every unique cell computed exactly once"
        );
        assert_eq!(stat(done_a, "failed") + stat(done_b, "failed"), 0);

        // The daemon-wide counters agree (asserted via the protocol —
        // the metrics satellite).
        assert_eq!(
            client::counter_of(&daemon.socket, "serve.cache_hits").unwrap(),
            6
        );
        assert_eq!(
            client::counter_of(&daemon.socket, "serve.cache_misses").unwrap(),
            8
        );
        assert_eq!(
            client::counter_of(&daemon.socket, "serve.requests_completed").unwrap(),
            2
        );

        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&cache);
    }
    let _ = std::fs::remove_file(&superset_path);
}

#[test]
fn a_cache_filled_offline_is_served_warm_by_the_daemon() {
    // One cache for both drivers: the offline `spec` bin fills it
    // through SMTSIM_JOURNAL, then a daemon started on the same
    // directory answers fig2 entirely from it, byte for byte.
    let cache = scratch("shared-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let fig2_path = smtsim_bench::spec_dir().join("fig2.toml");
    let offline = offline_figure_on(&fig2_path, 2, &cache, &[]);

    let daemon = Daemon::spawn("shared", 2, &cache, &[]);
    let lines = client::request_lines(&daemon.socket, &client::submit_registry("fig2")).unwrap();
    let done = client::terminal_line(&lines, "done").unwrap();
    assert_eq!(client::line_u64(done, "cache_hits"), Some(6));
    assert_eq!(client::line_u64(done, "cache_misses"), Some(0));
    assert_eq!(client::figure_of(&lines).unwrap(), offline);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn failed_cells_render_the_offline_bytes_cold_and_warm() {
    // Dropped fills under a cycle watchdog and one retry: Mix 2 /
    // Baseline_128 times out on both attempts, the other five cells
    // render a value.
    let knobs = [
        ("FAULT_DROP_FILL", "400"),
        ("SMTSIM_CELL_CYCLES", "60000"),
        ("SMTSIM_CELL_RETRIES", "1"),
    ];
    let fig2_path = smtsim_bench::spec_dir().join("fig2.toml");
    let offline = offline_figure(&fig2_path, 4, "faulted", &knobs);
    assert!(
        offline.contains("sweep health: 5 ok (0 retried), 1 timed out, 0 failed"),
        "{offline}"
    );
    assert!(
        offline.contains("failed: Mix 2 / Baseline_128"),
        "{offline}"
    );

    let cache = scratch("faulted-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let daemon = Daemon::spawn("faulted", 4, &cache, &knobs);
    let submit =
        || client::request_lines(&daemon.socket, &client::submit_registry("fig2")).unwrap();
    // Failed cells are never cached, so the warm request runs the
    // timed-out cell again.
    for (pass, hits, misses) in [("cold", 0, 6), ("warm", 5, 1)] {
        let lines = submit();
        assert_eq!(client::figure_of(&lines).unwrap(), offline, "{pass}");
        let done = client::terminal_line(&lines, "done").unwrap();
        assert_eq!(client::line_u64(done, "cache_hits"), Some(hits), "{pass}");
        assert_eq!(
            client::line_u64(done, "cache_misses"),
            Some(misses),
            "{pass}"
        );
        assert_eq!(client::line_u64(done, "failed"), Some(1), "{pass}");
    }
    let counter = |key| client::counter_of(&daemon.socket, key).unwrap();
    assert_eq!(counter("serve.cells_run"), 7);
    assert_eq!(
        counter("serve.cells_failed"),
        2,
        "the timed-out cell ran in both requests"
    );
    assert_eq!(counter("serve.cache_hits"), 5);
    assert_eq!(counter("serve.cache_misses"), 7);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn streamed_cell_lines_cover_the_matrix_exactly_once() {
    let cache = scratch("cells-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let daemon = Daemon::spawn("cells", 2, &cache, &[]);
    let lines = client::request_lines(&daemon.socket, &client::submit_registry("fig2")).unwrap();

    assert_eq!(
        client::line_str(&lines[0], "type").as_deref(),
        Some("accepted"),
        "first line: {}",
        lines[0]
    );
    let cells = client::line_u64(&lines[0], "cells").unwrap() as usize;
    let cell_lines: Vec<&String> = lines
        .iter()
        .filter(|l| client::line_str(l, "type").as_deref() == Some("cell"))
        .collect();
    assert_eq!(cell_lines.len(), cells, "one streamed line per cell");
    let mut indices: Vec<u64> = cell_lines
        .iter()
        .map(|l| client::line_u64(l, "index").unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(
        indices,
        (0..cells as u64).collect::<Vec<_>>(),
        "every matrix index exactly once"
    );
    for l in &cell_lines {
        assert_eq!(client::line_str(l, "status").as_deref(), Some("ok"), "{l}");
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn half_open_probe_does_not_wedge_the_daemon() {
    // A client that sends nothing keeps a connection thread parked in
    // read; the daemon must still serve others and shut down cleanly.
    let cache = scratch("halfopen-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let daemon = Daemon::spawn("halfopen", 1, &cache, &[]);
    let idle = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
    let lines = client::request_lines(&daemon.socket, "{\"op\":\"ping\"}").unwrap();
    assert_eq!(client::line_str(&lines[0], "type").as_deref(), Some("pong"));
    drop(idle);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn malformed_submissions_answer_typed_errors() {
    let cache = scratch("badreq-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let daemon = Daemon::spawn("badreq", 1, &cache, &[]);
    for (req, kind) in [
        ("this is not json", "invalid-request"),
        (
            "{\"op\":\"submit\",\"spec\":\"no_such_spec\"}",
            "invalid-config",
        ),
        (
            "{\"op\":\"submit\",\"spec_toml\":\"[experiment]\\nid = \\\"x\\\"\\nkind = \\\"suite\\\"\\nspecs = [\\\"fig2\\\"]\\n\"}",
            "unsupported-kind",
        ),
    ] {
        let lines = client::request_lines(&daemon.socket, req).unwrap();
        let last = lines.last().expect("an error line");
        assert_eq!(
            client::line_str(last, "kind").as_deref(),
            Some(kind),
            "request {req:?} answered {last}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

/// Each `cell` line's raw `run` text by matrix index, in stream order,
/// asserting every cell's `cached` flag is `cached`.
fn run_texts(lines: &[String], cached: bool) -> Vec<(u64, String)> {
    lines
        .iter()
        .filter(|l| client::line_str(l, "type").as_deref() == Some("cell"))
        .map(|l| {
            assert!(l.contains(&format!("\"cached\":{cached}")), "{l}");
            // The run object is the line's last field.
            let (_, run) = l
                .split_once(",\"run\":")
                .expect("an ok cell carries its run");
            let run = run
                .strip_suffix('}')
                .expect("the line closes after the run");
            (client::line_u64(l, "index").unwrap(), run.to_string())
        })
        .collect()
}

#[test]
fn warm_hit_lines_carry_the_cold_run_bytes_in_matrix_order() {
    let cache = scratch("splice-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let daemon = Daemon::spawn("splice", 2, &cache, &[]);
    let submit =
        || client::request_lines(&daemon.socket, &client::submit_registry("fig2")).unwrap();
    let cold: BTreeMap<u64, String> = run_texts(&submit(), false).into_iter().collect();
    let warm = run_texts(&submit(), true);
    assert_eq!(cold.len(), 6);
    // Cached cells stream first, in matrix order.
    let order: Vec<u64> = warm.iter().map(|(i, _)| *i).collect();
    assert_eq!(order, (0..6).collect::<Vec<_>>());
    // A hit's run is the computed cell's text, byte for byte.
    for (index, run) in &warm {
        assert_eq!(run, &cold[index], "cell {index}");
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

/// Sends raw request bytes and collects the response lines until the
/// daemon closes the stream (or resets it, having stopped reading
/// early). The bytes go out from their own thread because the daemon
/// may stop reading before the client stops writing; a read timeout
/// bounds a daemon that never answers.
fn raw_exchange(socket: &Path, bytes: Vec<u8>) -> Vec<String> {
    let stream = UnixStream::connect(socket).expect("daemon is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&bytes);
    });
    let lines = BufReader::new(&stream)
        .lines()
        .map_while(Result::ok)
        .collect();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = sender.join();
    lines
}

#[test]
fn hostile_request_lines_fail_typed_and_the_daemon_keeps_serving() {
    let cache = scratch("hostile-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let daemon = Daemon::spawn("hostile", 1, &cache, &[]);
    let deep = format!("{{\"op\":{}\n", "[".repeat(200_000)).into_bytes();
    let endless = vec![b' '; 2 << 20];
    let not_utf8 = b"{\"op\":\"ping\xff\"}\n".to_vec();
    for (what, bytes, reason) in [
        ("200 000 nested arrays", deep, "nesting deeper"),
        ("2 MB without a newline", endless, "exceeds"),
        ("a byte that is not UTF-8", not_utf8, "UTF-8"),
    ] {
        let lines = raw_exchange(&daemon.socket, bytes);
        let last = lines
            .last()
            .unwrap_or_else(|| panic!("{what}: the daemon answered nothing"));
        assert_eq!(
            client::line_str(last, "kind").as_deref(),
            Some("invalid-request"),
            "{what}: {last}"
        );
        assert!(
            client::line_str(last, "reason").is_some_and(|r| r.contains(reason)),
            "{what}: {last}"
        );
        let pong = client::request_lines(&daemon.socket, "{\"op\":\"ping\"}")
            .unwrap_or_else(|e| panic!("{what}: the daemon is gone: {e}"));
        assert_eq!(
            pong.last().map(String::as_str),
            Some("{\"type\":\"pong\"}"),
            "{what}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
