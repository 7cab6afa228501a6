//! Golden colorings: FNV-1a hashes of 1-thread colorings, pinned so a
//! refactor of the coloring kernels has to keep them byte-identical.
//!
//! At one thread no speculation races, so every schedule is
//! deterministic. The BGPC instances straddle
//! [`bgpc::tuning::DENSE_FORBIDDEN_CUTOFF`], so both forbidden-set
//! representations (`BitStampSet` at max net ≤ 128, `StampSet` above)
//! are pinned; the mesh pins the four D2GC schedules. Every schedule
//! runs with its default `--kernel auto`, i.e. the widest tier the host
//! supports. If a hash moves on purpose, the failure message prints the
//! new value.

use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{Color, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;

/// 64-bit FNV-1a over the little-endian bytes of the coloring.
fn fnv1a(colors: &[Color]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in colors {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check_bgpc(g: &BipartiteGraph, golden: &[(&str, u64)]) {
    let order = Ordering::Natural.vertex_order_bgpc(g);
    let pool = Pool::new(1);
    let schedules = Schedule::all();
    assert_eq!(schedules.len(), golden.len());
    for (schedule, &(name, want)) in schedules.iter().zip(golden) {
        assert_eq!(schedule.name(), name);
        let r = bgpc::color_bgpc(g, &order, schedule, &pool);
        verify_bgpc(g, &r.colors).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = fnv1a(&r.colors);
        assert_eq!(got, want, "{name}: coloring hash moved to {got:#018x}");
    }
}

#[test]
fn bgpc_bitstamp_colorings_are_pinned() {
    let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(200, 400, 6000, 11));
    assert!(g.max_net_size() <= bgpc::tuning::DENSE_FORBIDDEN_CUTOFF);
    check_bgpc(
        &g,
        &[
            ("V-V", 0xd180349ca1c3395a),
            ("V-V-64", 0xd180349ca1c3395a),
            ("V-V-64D", 0xd180349ca1c3395a),
            ("V-N∞", 0xd180349ca1c3395a),
            ("V-N1", 0xd180349ca1c3395a),
            ("V-N2", 0xd180349ca1c3395a),
            ("N1-N2", 0x26e3793ff355f56f),
            ("N2-N2", 0x9cf859d937c8b081),
        ],
    );
}

#[test]
fn bgpc_stamp_colorings_are_pinned() {
    let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_skewed(300, 2000, 20000, 1.0, 600, 7));
    assert!(g.max_net_size() > bgpc::tuning::DENSE_FORBIDDEN_CUTOFF);
    check_bgpc(
        &g,
        &[
            ("V-V", 0xd4bf4627ee11bcf0),
            ("V-V-64", 0xd4bf4627ee11bcf0),
            ("V-V-64D", 0xd4bf4627ee11bcf0),
            ("V-N∞", 0xd4bf4627ee11bcf0),
            ("V-N1", 0xd4bf4627ee11bcf0),
            ("V-N2", 0xd4bf4627ee11bcf0),
            ("N1-N2", 0x0aa07604b520f50e),
            ("N2-N2", 0x8f5af7bbaf8c65de),
        ],
    );
}

#[test]
fn d2gc_mesh_colorings_are_pinned() {
    let g = Graph::from_symmetric_matrix(&sparse::gen::grid3d(8, 8, 8, 1));
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(1);
    let golden = [
        ("V-V-64D", 0xa8212117a5aad181),
        ("V-N1", 0xa8212117a5aad181),
        ("V-N2", 0xa8212117a5aad181),
        ("N1-N2", 0x6a3e3a8cea9209f9),
    ];
    let schedules = Schedule::d2gc_set();
    assert_eq!(schedules.len(), golden.len());
    for (schedule, &(name, want)) in schedules.iter().zip(&golden) {
        assert_eq!(schedule.name(), name);
        let r = bgpc::d2gc::color_d2gc(&g, &order, schedule, &pool);
        verify_d2gc(&g, &r.colors).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = fnv1a(&r.colors);
        assert_eq!(got, want, "{name}: coloring hash moved to {got:#018x}");
    }
}
