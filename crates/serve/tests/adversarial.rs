//! Adversarial protocol tests: a live daemon fed hostile byte streams —
//! oversized length prefixes, zero-length and garbage frames, half-closed
//! connections, slow-loris trickles — must answer with typed protocol
//! errors (or drop the connection) and keep serving. Never a panic, never
//! a hang, never an unbounded allocation.
//!
//! No fail points are armed here, so these tests run in parallel; each
//! starts its own daemon on an ephemeral port.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serve::protocol::{
    read_frame, write_frame, FrameKind, ShardRequest, SuperstepRequest, FRAME_MAGIC,
};
use serve::{Daemon, JobRequest, Priority, RetryPolicy, ServeClient, ServeConfig};

fn start(tag: &str, read_timeout: Duration) -> Daemon {
    let dir = std::env::temp_dir().join(format!("serve-adv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        pool_threads: 1,
        cache_dir: dir,
        read_timeout,
        max_frame: 1 << 20,
        ..ServeConfig::default()
    })
    .expect("daemon start")
}

fn connect(d: &Daemon) -> TcpStream {
    let s = TcpStream::connect(d.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn assert_alive(d: &Daemon) {
    ServeClient::new(
        d.local_addr().to_string(),
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
    )
    .ping()
    .expect("daemon must stay alive");
}

/// Reads one frame off a raw socket.
fn read_reply(s: &mut TcpStream) -> (FrameKind, Vec<u8>) {
    read_frame(s, 1 << 20).expect("daemon reply")
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let d = start("oversized", Duration::from_secs(5));
    let mut s = connect(&d);
    let mut evil = Vec::new();
    evil.extend_from_slice(&FRAME_MAGIC);
    evil.push(0x01); // Submit
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&evil).unwrap();
    let (kind, payload) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::ProtocolError);
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("exceeds frame cap"), "got {msg:?}");
    assert_alive(&d);
}

#[test]
fn garbage_stream_gets_a_typed_protocol_error() {
    let d = start("garbage", Duration::from_secs(5));
    let mut s = connect(&d);
    s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (kind, _) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::ProtocolError);
    // The daemon drops the connection after the typed reply.
    let mut rest = Vec::new();
    let _ = s.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection must be closed after a violation");
    assert_alive(&d);
}

#[test]
fn unknown_kind_byte_is_rejected() {
    let d = start("badkind", Duration::from_secs(5));
    let mut s = connect(&d);
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(0x5a);
    frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&frame).unwrap();
    let (kind, _) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::ProtocolError);
    assert_alive(&d);
}

#[test]
fn response_kind_from_a_client_is_a_violation() {
    let d = start("respkind", Duration::from_secs(5));
    let mut s = connect(&d);
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(0x81); // Result — only the daemon may send this
    frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&frame).unwrap();
    let (kind, _) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::ProtocolError);
    assert_alive(&d);
}

#[test]
fn zero_length_submit_is_an_invalid_job_not_a_crash() {
    let d = start("zerolen", Duration::from_secs(5));
    let mut s = connect(&d);
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(0x01); // Submit with empty payload
    frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&frame).unwrap();
    let (kind, _) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::InvalidJob);
    // An envelope error is not a protocol violation: the connection
    // stays open for a well-formed follow-up.
    let mut ping = Vec::new();
    ping.extend_from_slice(&FRAME_MAGIC);
    ping.push(0x02);
    ping.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&ping).unwrap();
    let (kind, _) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::Pong);
    assert_alive(&d);
}

#[test]
fn half_closed_connection_mid_frame_is_torn_not_hung() {
    let d = start("halfclosed", Duration::from_secs(5));
    let mut s = connect(&d);
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(0x01);
    frame.extend_from_slice(&100u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 10]); // 10 of the promised 100 bytes
    s.write_all(&frame).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let (kind, payload) = read_reply(&mut s);
    assert_eq!(kind, FrameKind::ProtocolError);
    assert!(String::from_utf8_lossy(&payload).contains("torn"));
    assert_alive(&d);
}

#[test]
fn slow_loris_is_disconnected_by_the_read_timeout() {
    let d = start("loris", Duration::from_millis(200));
    let mut s = connect(&d);
    // Trickle one header byte, then stall past the read timeout.
    s.write_all(&FRAME_MAGIC[..1]).unwrap();
    std::thread::sleep(Duration::from_millis(700));
    // The daemon has dropped us: either the read returns EOF or a
    // follow-up write errors out. It must NOT still be waiting.
    let mut buf = [0u8; 16];
    let dropped = match s.read(&mut buf) {
        Ok(0) => true,
        Ok(_) => false,
        Err(_) => true,
    };
    assert!(dropped, "slow-loris connection must be disconnected");
    assert_alive(&d);
}

#[test]
fn abrupt_disconnect_between_frames_is_clean() {
    let d = start("abrupt", Duration::from_secs(5));
    for _ in 0..8 {
        let s = connect(&d);
        drop(s); // connect-and-vanish
    }
    assert_alive(&d);
}

#[test]
fn shard_install_with_a_huge_shard_count_allocates_nothing_per_shard() {
    // Both owner arrays pass `ShardRequest::decode` with u32::MAX
    // shards; neither may size a scratch array by the shard count or by
    // the owner ids.
    let d = start("hugeshards", Duration::from_secs(5));
    let m = sparse::gen::bipartite_uniform(10, 12, 40, 1);
    let mut graph_bytes = Vec::new();
    sparse::bin_io::write_bin(&mut graph_bytes, &m).unwrap();
    for owners in [vec![0u32; 12], vec![u32::MAX - 1; 12]] {
        let mut s = connect(&d);
        let req = ShardRequest {
            shard: 0,
            n_shards: u32::MAX,
            owners,
            graph_bytes: graph_bytes.clone(),
        };
        write_frame(&mut s, FrameKind::Shard, &req.encode(), 0).unwrap();
        let (kind, payload) = read_reply(&mut s);
        assert!(
            matches!(kind, FrameKind::Pong | FrameKind::InvalidJob),
            "got {kind:?}: {}",
            String::from_utf8_lossy(&payload)
        );
        assert_alive(&d);
    }
}

#[test]
fn superstep_update_colors_out_of_range_are_refused() {
    // A color near i32::MAX would grow the worker's forbidden set to
    // 16 GiB, and one below UNCOLORED is not a color at all: both must be
    // refused before they reach the view.
    let d = start("badcolors", Duration::from_secs(5));
    let m = sparse::gen::bipartite_uniform(10, 12, 40, 1);
    let mut graph_bytes = Vec::new();
    sparse::bin_io::write_bin(&mut graph_bytes, &m).unwrap();
    let owners: Vec<u32> = (0..12).map(|v| v % 2).collect();
    for bad in [i32::MAX, -2] {
        let mut s = connect(&d);
        let req = ShardRequest {
            shard: 0,
            n_shards: 2,
            owners: owners.clone(),
            graph_bytes: graph_bytes.clone(),
        };
        write_frame(&mut s, FrameKind::Shard, &req.encode(), 0).unwrap();
        assert_eq!(read_reply(&mut s).0, FrameKind::Pong);
        for (superstep, updates) in [(1, vec![]), (2, vec![(1, bad)])] {
            let step = SuperstepRequest { superstep, harvest: false, updates };
            write_frame(&mut s, FrameKind::Superstep, &step.encode(), 0).unwrap();
            let (kind, payload) = read_reply(&mut s);
            let want = if superstep == 1 { FrameKind::Flush } else { FrameKind::InvalidJob };
            assert_eq!(kind, want, "color {bad}: {}", String::from_utf8_lossy(&payload));
        }
    }
    let job = JobRequest {
        priority: Priority::Normal,
        deadline_ms: 0,
        no_cache: true,
        schedule: String::new(),
        graph_bytes: serve::client::encode_graph(&m),
    };
    let mut c = ServeClient::new(
        d.local_addr().to_string(),
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
    );
    let out = c.submit(&job).expect("daemon must still serve a normal job");
    bgpc::verify::verify_bgpc(&graph::BipartiteGraph::from_matrix(&m), &out.colors).unwrap();
}

#[test]
fn superstep_requests_the_round_loop_never_sends_are_refused() {
    // Round 1 colors through net summaries, which hold only while colors
    // are only added to a fresh view: a second round 1, a superstep
    // number that does not increase, or an update overwriting an owned
    // color would each corrupt the view, so each is refused before it
    // reaches it.
    let d = start("badsteps", Duration::from_secs(5));
    let m = sparse::gen::bipartite_uniform(10, 12, 40, 1);
    let mut graph_bytes = Vec::new();
    sparse::bin_io::write_bin(&mut graph_bytes, &m).unwrap();
    // Shard 0 owns the even vertices.
    let owners: Vec<u32> = (0..12).map(|v| v % 2).collect();
    // Each case is a run of (superstep, updates) requests; the last one
    // is refused.
    type Steps = Vec<(u32, Vec<(u32, i32)>)>;
    let cases: [(&str, Steps); 6] = [
        ("round 1 twice", vec![(1, vec![]), (1, vec![])]),
        ("superstep 0 after round 1", vec![(1, vec![]), (2, vec![]), (0, vec![])]),
        ("superstep number repeats", vec![(1, vec![]), (2, vec![]), (2, vec![])]),
        ("superstep number falls", vec![(1, vec![]), (3, vec![(1, 0)]), (2, vec![])]),
        ("owned vertex updated", vec![(1, vec![]), (2, vec![(3, 1), (4, 0)])]),
        ("owned vertex updated in round 1", vec![(1, vec![(0, 2)])]),
    ];
    for (label, steps) in &cases {
        let mut s = connect(&d);
        let req = ShardRequest {
            shard: 0,
            n_shards: 2,
            owners: owners.clone(),
            graph_bytes: graph_bytes.clone(),
        };
        write_frame(&mut s, FrameKind::Shard, &req.encode(), 0).unwrap();
        assert_eq!(read_reply(&mut s).0, FrameKind::Pong);
        for (i, (superstep, updates)) in steps.iter().enumerate() {
            let step = SuperstepRequest {
                superstep: *superstep,
                harvest: false,
                updates: updates.clone(),
            };
            write_frame(&mut s, FrameKind::Superstep, &step.encode(), 0).unwrap();
            let (kind, payload) = read_reply(&mut s);
            let want = if i + 1 < steps.len() { FrameKind::Flush } else { FrameKind::InvalidJob };
            assert_eq!(kind, want, "{label}, step {i}: {}", String::from_utf8_lossy(&payload));
        }
        assert_alive(&d);
    }
}
