//! Backpressure and cancellation semantics of the serve daemon
//! (DESIGN.md §17), exercised in-process: a full admission queue
//! answers a typed *retryable* rejection without blocking the accept
//! loop (metrics probes stay live throughout), and a client that
//! disconnects mid-stream has its queued cells cancelled and counted.

use smtsim_bench::serve_support as client;
use smtsim_rob2::Knobs;
use smtsim_serve::{ServeConfig, Server, SpecLowering};
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A one-cell figure spec small enough to finish in milliseconds.
const TINY_SPEC: &str = "\
[experiment]
id = \"tiny\"
title = \"Tiny\"
kind = \"figure\"
norm = \"baseline-32\"
schemes = [\"baseline-32\"]
mixes = [1]

[knobs]
budget = 2000
warmup = 500
";

/// A wider matrix for the cancellation test: enough cells that most
/// are still queued on one worker when the client walks away.
const WIDE_SPEC: &str = "\
[experiment]
id = \"wide\"
title = \"Wide\"
kind = \"figure\"
norm = \"baseline-32\"
schemes = [\"baseline-32\", \"baseline-128\", \"r-rob-16\", \"p-rob-5\"]
mixes = [1, 2, 9]

[knobs]
budget = 30000
warmup = 1000
";

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smtsim-serve-backpressure-{tag}-{}",
        std::process::id()
    ))
}

fn config(tag: &str, queue_limit: usize) -> ServeConfig {
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ServeConfig {
        socket: dir.join("serve.sock"),
        cache_dir: dir.join("cache"),
        queue_limit,
        workers: 1,
        spec_dir: None,
    }
}

/// [`SpecLowering`] that stalls before delegating — holds its admission
/// slot long enough for the queue-full path to be observable.
struct SlowLowering {
    inner: Knobs,
    delay: Duration,
}

impl SpecLowering for SlowLowering {
    fn lower(&self, spec: &smtsim_rob2::ExperimentSpec) -> (smtsim_rob2::Lab, Vec<usize>) {
        std::thread::sleep(self.delay);
        self.inner.lower(spec)
    }
}

#[test]
fn full_queue_rejects_retryable_while_the_accept_loop_stays_live() {
    let delay = Duration::from_millis(1_500);
    let server = Server::start(
        config("queue", 1),
        Box::new(SlowLowering {
            inner: Knobs::default(),
            delay,
        }),
    )
    .unwrap();
    let socket = server.socket().to_path_buf();

    // Client 1 takes the single admission slot and sits in the slow
    // lowering stage.
    let slow_socket = socket.clone();
    let slow = std::thread::spawn(move || {
        client::request_lines(&slow_socket, &client::submit_inline(TINY_SPEC)).unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = client::request_lines(&socket, "{\"op\":\"metrics\"}").unwrap();
        if client::line_u64(metrics.last().unwrap(), "active_requests") == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "first request never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Client 2 must be bounced immediately — typed, retryable, and
    // far faster than the slow request it would otherwise wait on.
    let t0 = Instant::now();
    let bounced = client::request_lines(&socket, &client::submit_inline(TINY_SPEC)).unwrap();
    let elapsed = t0.elapsed();
    let last = bounced.last().expect("a rejection line");
    assert_eq!(
        client::line_str(last, "type").as_deref(),
        Some("error"),
        "{last}"
    );
    assert_eq!(
        client::line_str(last, "kind").as_deref(),
        Some("queue-full"),
        "{last}"
    );
    assert!(last.contains("\"retryable\":true"), "{last}");
    assert!(
        elapsed < delay,
        "rejection must not queue behind the admitted request ({elapsed:?})"
    );

    // The accept loop stays responsive under saturation: a metrics
    // probe answers while the slow request still holds the slot.
    let t0 = Instant::now();
    let metrics = client::request_lines(&socket, "{\"op\":\"metrics\"}").unwrap();
    assert_eq!(
        client::line_str(metrics.last().unwrap(), "type").as_deref(),
        Some("metrics")
    );
    assert!(t0.elapsed() < delay, "metrics must not queue either");

    // The admitted request still completes normally.
    let slow_lines = slow.join().unwrap();
    assert_eq!(
        client::line_str(slow_lines.last().unwrap(), "type").as_deref(),
        Some("done"),
        "admitted request must finish: {:?}",
        slow_lines.last()
    );
    assert!(server.counter("serve.queue_rejections") >= 1);
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_its_queued_cells() {
    let server = Server::start(config("cancel", 4), Box::new(Knobs::default())).unwrap();
    let socket = server.socket().to_path_buf();

    // Submit a 12-cell request on a 1-worker pool, read the accepted
    // line, then vanish.
    {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream
            .write_all(format!("{}\n", client::submit_inline(WIDE_SPEC)).as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut accepted = String::new();
        assert!(reader.read_line(&mut accepted).unwrap() > 0);
        assert_eq!(
            client::line_str(&accepted, "type").as_deref(),
            Some("accepted"),
            "{accepted}"
        );
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    // The disconnect watcher fires on EOF; queued cells resolve as
    // cancelled without being computed. Poll briefly — cancellation is
    // bounded by one watchdog poll of the in-flight cell.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.counter("serve.cells_cancelled") == 0
        || server.counter("serve.requests_cancelled") == 0
    {
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the request (cancelled cells: {}, requests: {})",
            server.counter("serve.cells_cancelled"),
            server.counter("serve.requests_cancelled")
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        server.counter("serve.cells_run") + server.counter("serve.cells_cancelled") >= 12 - 1,
        "every cell must resolve as run or cancelled"
    );

    // The daemon is healthy afterwards: a fresh tiny request completes.
    let lines = client::request_lines(&socket, &client::submit_inline(TINY_SPEC)).unwrap();
    assert_eq!(
        client::line_str(lines.last().unwrap(), "type").as_deref(),
        Some("done"),
        "{:?}",
        lines.last()
    );
    server.shutdown();
}
