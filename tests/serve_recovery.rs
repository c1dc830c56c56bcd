//! Crash-recovery proof for the serve daemon's persistent cache
//! (DESIGN.md §17): SIGKILL the daemon mid-sweep, restart it on the
//! same cache directory, and the durably journaled cells must be
//! served warm — with the final figure byte-identical to the offline
//! `spec` bin. A deliberately corrupted cache record must surface as
//! the typed `journal-corrupt` protocol error, never as silently
//! recomputed-or-wrong bytes.

use smtsim_bench::serve_support as client;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// A budget high enough that six fig2 cells take a while on one
// worker: the kill lands mid-sweep, after at least two durable cells.
const BUDGET: &str = "20000";
const WARMUP: &str = "1000";
const MIXES: &str = "1,2";

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smtsim-serve-recovery-{tag}-{}",
        std::process::id()
    ))
}

fn spawn_daemon(socket: &Path, cache: &Path) -> Child {
    let _ = std::fs::remove_file(socket);
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .env_clear()
        .env("BUDGET", BUDGET)
        .env("WARMUP", WARMUP)
        .env("MIXES", MIXES)
        .env("SMTSIM_JOBS", "1")
        .env("SMTSIM_SERVE_SOCKET", socket)
        .env("SMTSIM_SERVE_CACHE", cache)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve bin spawns")
}

fn wait_ready(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(lines) = client::request_lines(socket, "{\"op\":\"ping\"}") {
            if lines
                .last()
                .is_some_and(|l| client::line_str(l, "type").as_deref() == Some("pong"))
            {
                return;
            }
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn shutdown(socket: &Path, mut child: Child) {
    let _ = client::request_lines(socket, "{\"op\":\"shutdown\"}");
    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exit after drain: {status}");
}

/// The offline cache-armed reference figure for fig2 (same knobs as
/// the daemon runs under).
fn offline_fig2(tag: &str) -> String {
    let cache = scratch(&format!("offline-{tag}"));
    let _ = std::fs::remove_dir_all(&cache);
    let out = Command::new(env!("CARGO_BIN_EXE_spec"))
        .env_clear()
        .env("BUDGET", BUDGET)
        .env("WARMUP", WARMUP)
        .env("MIXES", MIXES)
        .env("SMTSIM_JOBS", "1")
        .env("SMTSIM_SPEC", smtsim_bench::spec_dir().join("fig2.toml"))
        .env("SMTSIM_JOURNAL", &cache)
        .output()
        .expect("spec bin runs");
    let _ = std::fs::remove_dir_all(&cache);
    assert!(
        out.status.success(),
        "offline spec bin failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure text is UTF-8")
}

/// The one journal shard inside a cache directory.
fn shard_file(cache: &Path) -> PathBuf {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("cache directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(shards.len(), 1, "exactly one universe shard: {shards:?}");
    shards.pop().unwrap()
}

#[test]
fn sigkilled_daemon_restarts_warm_and_byte_identical() {
    let cache = scratch("warm-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let socket = scratch("warm").with_extension("sock");
    let mut first = spawn_daemon(&socket, &cache);
    wait_ready(&socket);

    // Submit fig2, read until two cells have streamed (each streamed
    // cell is already durable in the shard journal), then SIGKILL the
    // daemon mid-sweep.
    {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream
            .write_all(format!("{}\n", client::submit_registry("fig2")).as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut seen_cells = 0;
        while seen_cells < 2 {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "stream ended before two cells"
            );
            match client::line_str(&line, "type").as_deref() {
                Some("cell") => seen_cells += 1,
                Some("accepted") => {}
                other => panic!("unexpected line {other:?}: {line}"),
            }
        }
        first.kill().expect("SIGKILL the daemon");
        let _ = first.wait();
    }
    let durable = std::fs::read_to_string(shard_file(&cache)).unwrap();
    let records = durable.lines().count().saturating_sub(1);
    assert!(
        records >= 2,
        "two streamed cells must be on disk, got {records}"
    );

    // Restart on the same cache directory: the journaled cells are
    // warm, and the completed figure matches the offline bin exactly.
    let second = spawn_daemon(&socket, &cache);
    wait_ready(&socket);
    let lines = client::request_lines(&socket, &client::submit_registry("fig2")).unwrap();
    let done = client::terminal_line(&lines, "done").unwrap();
    let hits = client::line_u64(done, "cache_hits").unwrap();
    assert!(hits >= 2, "killed-run cells must be warm, hits={hits}");
    assert_eq!(client::line_u64(done, "failed"), Some(0));
    assert_eq!(
        client::figure_of(&lines).unwrap(),
        offline_fig2("warm"),
        "post-crash figure drifted from the offline bin"
    );

    // Idempotence: a third submission is all hits and byte-identical.
    let again = client::request_lines(&socket, &client::submit_registry("fig2")).unwrap();
    let done = client::terminal_line(&again, "done").unwrap();
    assert_eq!(client::line_u64(done, "cache_hits"), Some(6));
    assert_eq!(client::line_u64(done, "cache_misses"), Some(0));
    assert_eq!(
        client::figure_of(&again).unwrap(),
        client::figure_of(&lines).unwrap()
    );

    shutdown(&socket, second);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn corrupted_cache_record_is_a_typed_journal_corrupt_error() {
    let cache = scratch("corrupt-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let socket = scratch("corrupt").with_extension("sock");

    // Populate the cache with one full fig2 sweep, then stop cleanly.
    let first = spawn_daemon(&socket, &cache);
    wait_ready(&socket);
    let lines = client::request_lines(&socket, &client::submit_registry("fig2")).unwrap();
    client::figure_of(&lines).expect("cold sweep completes");
    shutdown(&socket, first);

    // Damage a record in the middle of the shard (the final line is
    // allowed to be a torn append; mid-file damage never is).
    let shard = shard_file(&cache);
    let text = std::fs::read_to_string(&shard).unwrap();
    let mut on_disk: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(on_disk.len() >= 3, "header plus several records");
    let damaged = on_disk[2].replacen("\"crc\":\"", "\"crc\":\"0", 1);
    assert_ne!(damaged, on_disk[2], "record must carry a crc to damage");
    on_disk[2] = damaged;
    std::fs::write(&shard, format!("{}\n", on_disk.join("\n"))).unwrap();

    // A restarted daemon must answer the typed, non-retryable
    // journal-corrupt error — and keep serving other traffic.
    let second = spawn_daemon(&socket, &cache);
    wait_ready(&socket);
    let lines = client::request_lines(&socket, &client::submit_registry("fig2")).unwrap();
    let last = lines.last().expect("an error line");
    assert_eq!(
        client::line_str(last, "type").as_deref(),
        Some("error"),
        "{last}"
    );
    assert_eq!(
        client::line_str(last, "kind").as_deref(),
        Some("journal-corrupt"),
        "{last}"
    );
    assert!(last.contains("\"retryable\":false"), "{last}");
    let pong = client::request_lines(&socket, "{\"op\":\"ping\"}").unwrap();
    assert_eq!(
        client::line_str(&pong[0], "type").as_deref(),
        Some("pong"),
        "daemon must survive a corrupt shard"
    );

    shutdown(&socket, second);
    let _ = std::fs::remove_dir_all(&cache);
}
