//! Service-layer fault coverage: every `serve.*` fail point fires at
//! least once against a live daemon and the service degrades gracefully —
//! the affected request gets a typed (usually retryable) answer, every
//! delivered coloring verifies, and the daemon keeps serving afterwards.
//!
//! The fail-point registry is process-global, so every test here holds
//! `FAULT_GATE` for its whole body: an arming must only be consumable by
//! the test that installed it.

use std::sync::Mutex;
use std::time::Duration;

use par::faults::{self, FaultAction};
use serve::client::encode_graph;
use serve::{
    ClientError, Daemon, JobRequest, Priority, RetryPolicy, ServeClient, ServeConfig,
};

static FAULT_GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("servecov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> Daemon {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        pool_threads: 2,
        cache_dir: temp_cache(tag),
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    Daemon::start(cfg).expect("daemon start")
}

fn client_for(d: &Daemon, max_attempts: u32) -> ServeClient {
    ServeClient::new(
        d.local_addr().to_string(),
        RetryPolicy {
            max_attempts,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            jitter_seed: 7,
        },
    )
}

fn request(seed: u64) -> (JobRequest, graph::BipartiteGraph) {
    let m = sparse::gen::bipartite_uniform(200, 150, 1500, seed);
    let g = graph::BipartiteGraph::try_from_matrix(&m).expect("valid pattern");
    let req = JobRequest {
        priority: Priority::Normal,
        deadline_ms: 0,
        no_cache: false,
        schedule: "N1-N2".into(),
        graph_bytes: encode_graph(&m),
    };
    (req, g)
}

fn assert_valid(g: &graph::BipartiteGraph, outcome: &serve::client::JobOutcome) {
    bgpc::verify::verify_bgpc(g, &outcome.colors).expect("coloring must verify");
    assert!(outcome.num_colors as usize >= g.max_net_size());
}

#[test]
fn round_trip_then_cache_hit_then_restart_hit() {
    let _g = lock();
    let dir = temp_cache("roundtrip");
    let mut d = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = client_for(&d, 3);
    let (req, g) = request(11);

    let first = c.submit(&req).expect("first job");
    assert!(!first.cache_hit);
    assert_valid(&g, &first);

    let second = c.submit(&req).expect("repeat job");
    assert!(second.cache_hit, "identical pattern must be served from cache");
    assert_valid(&g, &second);
    assert_eq!(first.colors, second.colors, "cache echoes the stored coloring");

    // Restart on the same store: the cache survives process death.
    d.shutdown();
    let d2 = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c2 = client_for(&d2, 3);
    let third = c2.submit(&req).expect("post-restart job");
    assert!(third.cache_hit, "restarted daemon must hit the persisted cache");
    assert_valid(&g, &third);
}

#[test]
fn tight_deadline_degrades_to_valid_best_so_far() {
    let _g = lock();
    // Stall the job body once for 5 ms, so the 1 ms deadline has always
    // expired before coloring starts (a fast host could otherwise beat it).
    faults::reset();
    faults::arm_with("serve.job.panic", FaultAction::Stall(Duration::from_millis(5)), 1, None);
    let d = start("deadline", |_| {});
    let mut c = client_for(&d, 3);
    let m = sparse::gen::bipartite_uniform(4000, 3000, 60_000, 3);
    let g = graph::BipartiteGraph::try_from_matrix(&m).unwrap();
    let req = JobRequest {
        priority: Priority::High,
        deadline_ms: 1, // expires while the job is still being set up
        no_cache: true,
        schedule: "N1-N2".into(),
        graph_bytes: encode_graph(&m),
    };
    let outcome = c.submit(&req).expect("deadline miss still answers");
    let reason = outcome.degraded.as_deref().expect("1 ms deadline must degrade");
    assert!(
        reason.contains("deadline exceeded"),
        "expected a deadline degradation, got {reason:?}"
    );
    bgpc::verify::verify_bgpc(&g, &outcome.colors).expect("degraded coloring still verifies");
    let stats = c.stats().expect("stats verb");
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or(0);
    assert!(get("deadline_miss") >= 1, "deadline_miss counter must move");
    faults::reset();
}

#[test]
fn overload_sheds_with_backpressure_and_memory_stays_bounded() {
    let _g = lock();
    faults::reset();
    // Each job stalls 200 ms in the executor, so concurrent submissions
    // pile into the bounded queue and the overflow is shed.
    faults::arm_with("serve.job.panic", FaultAction::Stall(Duration::from_millis(200)), 3, None);
    let d = start("overload", |cfg| {
        cfg.queue_capacity = 2;
        cfg.pool_threads = 1;
    });
    let addr = d.local_addr().to_string();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = ServeClient::new(
                    addr,
                    RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
                );
                let (req, _) = request(50 + i);
                c.submit(&req)
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for h in handles {
        match h.join().expect("client thread") {
            Ok(_) => ok += 1,
            Err(ClientError::RetriesExhausted { last, .. }) => {
                assert!(
                    matches!(*last, ClientError::Backpressure { .. }),
                    "single-attempt failures must be backpressure, got {last}"
                );
                shed += 1;
            }
            Err(e) => panic!("unexpected failure under overload: {e}"),
        }
    }
    faults::reset();
    assert!(ok >= 1, "at least the in-flight job must complete");
    assert!(shed >= 1, "an 8-deep burst against capacity 2 must shed");
    assert!(
        d.peak_queue_depth() <= 2,
        "queue depth {} exceeded its bound under overload",
        d.peak_queue_depth()
    );
    // The daemon is still healthy after the wave.
    client_for(&d, 1).ping().expect("daemon alive after overload");
}

#[test]
fn torn_response_frame_is_retried_to_success() {
    let _g = lock();
    faults::reset();
    // Thread filter 0 = the daemon's writer; the client writes with tid 1.
    faults::arm_with("serve.frame.torn", FaultAction::Torn(6), 1, Some(0));
    let d = start("torn", |_| {});
    let mut c = client_for(&d, 4);
    let (req, g) = request(21);
    let outcome = c.submit(&req).expect("retry must recover from a torn response");
    faults::reset();
    assert!(outcome.attempts >= 2, "first response was torn, so attempts > 1");
    assert_valid(&g, &outcome);
    assert_eq!(faults::hits("serve.frame.torn"), 0, "registry was reset");
}

#[test]
fn torn_client_frame_is_retried_to_success() {
    let _g = lock();
    faults::reset();
    faults::arm_with("serve.frame.torn", FaultAction::Torn(4), 1, Some(1));
    let d = start("torn-client", |_| {});
    let mut c = client_for(&d, 4);
    let (req, g) = request(22);
    let outcome = c.submit(&req).expect("retry must recover from a torn submit");
    faults::reset();
    assert!(outcome.attempts >= 2);
    assert_valid(&g, &outcome);
    client_for(&d, 1).ping().expect("daemon alive after torn submit");
}

#[test]
fn cache_write_abort_costs_a_hit_never_an_answer() {
    let _g = lock();
    faults::reset();
    faults::arm_with("serve.cache.write_abort", FaultAction::Panic, 1, None);
    let dir = temp_cache("write-abort");
    let mut d = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = client_for(&d, 3);
    let (req, g) = request(31);

    // The store is aborted mid-write, but the job itself succeeds.
    let first = c.submit(&req).expect("job survives an aborted cache store");
    assert_valid(&g, &first);
    assert_eq!(faults::hits("serve.cache.write_abort"), 1);
    faults::reset();

    // Nothing was committed, so the repeat recomputes...
    let second = c.submit(&req).expect("recompute after aborted store");
    assert!(!second.cache_hit, "aborted store must not produce a cache entry");
    assert_valid(&g, &second);

    // ...and that recompute's store landed: now it hits, even across a
    // restart (the open sweep clears the abandoned tmp file).
    d.shutdown();
    let d2 = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir,
        ..ServeConfig::default()
    })
    .unwrap();
    let third = client_for(&d2, 3).submit(&req).expect("post-restart job");
    assert!(third.cache_hit, "store must be readable after the aborted write");
    assert_valid(&g, &third);
}

#[test]
fn contained_worker_panic_answers_server_error_and_daemon_survives() {
    let _g = lock();
    faults::reset();
    faults::arm_with("serve.job.panic", FaultAction::Panic, 1, None);
    let d = start("panic", |_| {});

    // A single-attempt client sees the typed retryable failure.
    let mut once = client_for(&d, 1);
    let (req, g) = request(41);
    match once.submit(&req) {
        Err(ClientError::RetriesExhausted { last, .. }) => {
            assert!(matches!(*last, ClientError::ServerError(_)), "got {last}");
        }
        other => panic!("expected a contained ServerError, got {other:?}"),
    }
    faults::reset();

    // The panic was contained: the same daemon completes the retry.
    let outcome = client_for(&d, 3).submit(&req).expect("daemon survives the panic");
    assert_valid(&g, &outcome);
    let stats = once.stats().expect("stats after panic");
    let panics = stats.iter().find(|(n, _)| n == "worker_panics").map(|(_, v)| *v);
    assert_eq!(panics, Some(1));
}

#[test]
fn conn_stall_fail_point_only_delays_the_stalled_connection() {
    let _g = lock();
    faults::reset();
    faults::arm_with("serve.conn.stall", FaultAction::Stall(Duration::from_millis(150)), 1, None);
    let d = start("stall", |_| {});
    let mut c = client_for(&d, 2);
    let (req, g) = request(61);
    let t0 = std::time::Instant::now();
    let outcome = c.submit(&req).expect("stalled handler still answers");
    faults::reset();
    assert!(t0.elapsed() >= Duration::from_millis(150), "the stall actually ran");
    assert_valid(&g, &outcome);
}

#[test]
fn invalid_jobs_are_terminal_not_retried() {
    let _g = lock();
    let d = start("invalid", |_| {});
    let mut c = client_for(&d, 5);

    // Garbage graph bytes: the hardened bin reader types the corruption.
    let garbage = JobRequest {
        priority: Priority::Normal,
        deadline_ms: 0,
        no_cache: false,
        schedule: String::new(),
        graph_bytes: vec![0xde, 0xad, 0xbe, 0xef],
    };
    match c.submit(&garbage) {
        Err(e @ ClientError::InvalidJob(_)) => assert!(!e.is_retryable()),
        other => panic!("expected InvalidJob, got {other:?}"),
    }

    // Unknown schedule name.
    let (mut req, _) = request(71);
    req.schedule = "no-such-schedule".into();
    match c.submit(&req) {
        Err(ClientError::InvalidJob(msg)) => assert!(msg.contains("no-such-schedule")),
        other => panic!("expected InvalidJob, got {other:?}"),
    }

    // Structurally broken pattern with a *valid* checksum: patch a column
    // index out of range and re-seal the trailer, so the corruption gets
    // past the integrity check and must be caught by CSR validation.
    let (ok_bytes_req, _) = request(73);
    let mut bytes = ok_bytes_req.graph_bytes.clone();
    let col_at = bytes.len() - 12; // last col_idx word, before the 8-byte trailer
    bytes[col_at..col_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut h = sparse::bin_io::Fnv1a::default();
    h.update(&bytes[..bytes.len() - 8]);
    let trailer_at = bytes.len() - 8;
    bytes[trailer_at..].copy_from_slice(&h.finish().to_le_bytes());
    let broken = JobRequest { graph_bytes: bytes, ..ok_bytes_req };
    match c.submit(&broken) {
        Err(ClientError::InvalidJob(msg)) => {
            assert!(msg.contains("CSR invariants"), "got {msg:?}");
        }
        other => panic!("expected InvalidJob for broken CSR, got {other:?}"),
    }

    // None of that harmed the daemon.
    let (ok_req, g) = request(72);
    assert_valid(&g, &c.submit(&ok_req).expect("daemon healthy after bad jobs"));
}

#[test]
fn shutdown_verb_stops_the_daemon() {
    let _g = lock();
    let d = start("shutdown", |_| {});
    let addr = d.local_addr().to_string();
    let c = ServeClient::new(addr.clone(), RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    c.ping().expect("alive before shutdown");
    c.shutdown().expect("shutdown verb");
    d.join(); // returns because the verb tripped the flag
    let late = ServeClient::new(addr, RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    assert!(late.ping().is_err(), "daemon must stop answering after shutdown");
}
