//! Every full coloring takes one path through the daemon, whether the job
//! names a schedule or leaves it empty: columns relabeled by descending
//! degree, the job's schedule (N1-N2 when empty) in natural order, and
//! the coloring mapped back to original vertex ids.

use bgpc::{RunnerOpts, Schedule};
use graph::BipartiteGraph;
use serve::client::encode_graph;
use serve::{Daemon, JobRequest, Priority, RetryPolicy, ServeClient, ServeConfig};
use sparse::LocalityOrder;

#[test]
fn empty_and_named_schedules_color_through_the_degree_relabel() {
    let dir = std::env::temp_dir().join(format!("serve-full-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        pool_threads: 1,
        cache_dir: dir,
        ..ServeConfig::default()
    })
    .expect("daemon start");
    let mut c = ServeClient::new(
        d.local_addr().to_string(),
        RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
    );
    let m = sparse::gen::bipartite_skewed(300, 400, 4000, 1.0, 60, 3);
    let submit = |c: &mut ServeClient, schedule: &str| {
        let req = JobRequest {
            priority: Priority::Normal,
            deadline_ms: 0,
            no_cache: true,
            schedule: schedule.into(),
            graph_bytes: encode_graph(&m),
        };
        c.submit(&req).expect("job answers")
    };
    let empty = submit(&mut c, "");
    let named = submit(&mut c, "N1-N2");
    assert!(empty.degraded.is_none() && named.degraded.is_none());
    assert_eq!(empty.colors, named.colors, "empty schedule must run N1-N2 on the same path");

    let (pm, perm) = LocalityOrder::Degree.apply_columns(&m);
    let perm = perm.expect("degree relabel returns its permutation");
    assert!(perm.iter().enumerate().any(|(i, &p)| p as usize != i), "relabel must move columns");
    let g = BipartiteGraph::from_matrix(&pm);
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let pool = par::Pool::new(1);
    let r = bgpc::color_with_opts(&g, &order, &Schedule::n1_n2(), &pool, RunnerOpts::default());
    assert_eq!(empty.colors, sparse::unpermute(&r.colors, &perm));
    bgpc::verify::verify_bgpc(&BipartiteGraph::from_matrix(&m), &empty.colors).unwrap();
}
