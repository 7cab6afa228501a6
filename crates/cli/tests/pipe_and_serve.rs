//! Process-level CLI behavior that can't be tested in-process: broken
//! stdout pipes (the `bgpc-cli … | head` scenario), the text `color`
//! prints to stdout, and the `serve` daemon mode with its exit-code
//! taxonomy (7 = service error).

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpc-cli"))
}

#[test]
fn closed_stdout_pipe_is_a_clean_exit_not_a_panic() {
    // Generate a matrix large enough to overflow the 64 KiB pipe buffer,
    // writing to /dev/stdout while the reader closes after one byte: the
    // writer hits EPIPE mid-stream and must exit 0 silently.
    let mut child = cli()
        .args([
            "generate",
            "--dataset",
            "af_shell10",
            "--scale",
            "0.05",
            "--output",
            "/dev/stdout",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bgpc-cli");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("the stream starts");
    drop(stdout); // reader hangs up mid-stream
    let status = child.wait().expect("child exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        status.success(),
        "broken pipe must exit 0, got {status:?} with stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "broken pipe must not panic: {stderr}"
    );
}

#[test]
fn closed_stdout_pipe_during_color_run_is_clean() {
    let mut child = cli()
        .args(["color", "--dataset", "af_shell10", "--scale", "0.002"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bgpc-cli");
    // Close stdout before the run prints its report lines.
    drop(child.stdout.take());
    let status = child.wait().expect("child exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "got {status:?} with stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

/// The `pattern:` banner line of a `color` run with the given flags.
fn color_banner(flags: &[&str]) -> String {
    let out = cli()
        .arg("color")
        .args(["--dataset", "af_shell10", "--scale", "0.002"])
        .args(flags)
        .output()
        .expect("run bgpc-cli");
    assert!(out.status.success(), "{flags:?}: {out:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .find(|l| l.starts_with("pattern:"))
        .expect("a pattern: banner")
        .to_string()
}

#[test]
fn distance_k_banner_names_no_index_width_or_relabel() {
    // Row pointers are always u32, so no banner names an index width; the
    // distance-k BFS does not relabel, so its banner does not claim that.
    let dk = color_banner(&["--problem", "d3"]);
    assert!(dk.ends_with("natural order"), "{dk}");
    assert!(!dk.contains("indices") && !dk.contains("relabel"), "{dk}");
    let d2 = color_banner(&["--problem", "d2gc"]);
    assert!(!d2.contains("indices") && d2.ends_with("none relabel"), "{d2}");
}

#[test]
fn retired_layout_flags_exit_with_usage_code() {
    // The breadth-first relabeling (under any of its names) and CPU
    // pinning are usage errors, not silent fallbacks to a plain run.
    for flags in [
        &["--relabel", "bfs"][..],
        &["--relabel", "cm"][..],
        &["--relabel", "rcm"][..],
        &["--pin"][..],
    ] {
        let out = cli()
            .args(["color", "--dataset", "af_shell10", "--scale", "0.002"])
            .args(flags)
            .output()
            .expect("run bgpc-cli");
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{flags:?} must not color anything");
    }
}

#[test]
fn oversized_matrix_market_dimensions_exit_with_input_code() {
    // A row count past u32::MAX is an input error, not a panic (101).
    let dir = std::env::temp_dir().join(format!("cli-mtx-dims-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate pattern general\n4294967296 2 1\n1 1\n",
    )
    .unwrap();
    let out = cli()
        .args(["color", "--mtx", path.to_str().unwrap()])
        .output()
        .expect("run bgpc-cli");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("exceed the u32 index range"), "{stderr}");
}

#[test]
fn unbindable_address_exits_with_service_code() {
    let status = cli()
        .args(["serve", "--addr", "203.0.113.1:1"]) // TEST-NET, not routable/bindable
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn bgpc-cli");
    assert_eq!(status.code(), Some(7), "service failures use exit code 7");
}

#[test]
fn serve_daemon_round_trips_jobs_and_stops_on_shutdown_verb() {
    let dir = std::env::temp_dir().join(format!("cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addr_file = dir.join("addr");
    let mut child = cli()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--cache-dir",
            dir.join("cache").to_str().unwrap(),
            "--threads",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    // Wait for the atomically written address file.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    };

    let mut client = serve::ServeClient::new(addr, serve::RetryPolicy::default());
    client.ping().expect("daemon answers pings");
    let m = sparse::gen::bipartite_uniform(100, 80, 600, 5);
    let req = serve::JobRequest {
        priority: serve::Priority::Normal,
        deadline_ms: 0,
        no_cache: false,
        schedule: String::new(),
        graph_bytes: serve::client::encode_graph(&m),
    };
    let outcome = client.submit(&req).expect("job completes");
    let g = graph::BipartiteGraph::try_from_matrix(&m).unwrap();
    bgpc::verify::verify_bgpc(&g, &outcome.colors).expect("coloring verifies");

    client.shutdown().expect("shutdown verb accepted");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        assert!(Instant::now() < deadline, "daemon must exit after Shutdown");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "clean daemon shutdown exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}
