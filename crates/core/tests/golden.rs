//! Golden colorings: FNV-1a hashes of 1-thread colorings, pinned so a
//! refactor of the coloring kernels has to keep them byte-identical.
//!
//! At one thread no speculation races, so every schedule is
//! deterministic. The BGPC instances straddle
//! [`bgpc::tuning::DENSE_FORBIDDEN_CUTOFF`], so both forbidden-set
//! representations (`BitStampSet` at max net ≤ 128, `StampSet` above)
//! are pinned; the mesh pins all eight schedules on D2GC, and a
//! power-law graph with max degree > 128 pins D2GC's `StampSet` arm.
//! Each instance also pins the B1/B2 balanced runs of `V-N2` and
//! `N1-N2`, the sequential baseline, and (for one BGPC and one D2GC
//! instance) a seeded incremental recolor. Every schedule runs with its
//! default `--kernel auto`, i.e. the widest tier the host supports. If a
//! hash moves on purpose, the failure message prints the new value.

use bgpc::incremental::{apply_delta, recolor_bgpc_incremental, recolor_d2gc_incremental, CsrDelta};
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{Balance, Color, RunnerOpts, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::Csr;

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

fn pin(name: &str, colors: &[Color], want: u64) {
    let got = fnv1a(colors);
    assert_eq!(got, want, "{name}: coloring hash moved to {got:#018x}");
}

/// The paper's eight schedules followed by the B1/B2 runs of `V-N2` and
/// `N1-N2`, in that order.
fn schedules_with_balance() -> Vec<Schedule> {
    let mut all = Schedule::all();
    for base in [Schedule::v_n(2), Schedule::n1_n2()] {
        for balance in [Balance::B1, Balance::B2] {
            all.push(base.clone().with_balance(balance));
        }
    }
    all
}

fn check_bgpc(g: &BipartiteGraph, golden: &[(&str, u64)]) {
    let order = Ordering::Natural.vertex_order_bgpc(g);
    let pool = Pool::new(1);
    let schedules = schedules_with_balance();
    assert_eq!(schedules.len(), golden.len());
    for (schedule, &(name, want)) in schedules.iter().zip(golden) {
        assert_eq!(schedule.name(), name);
        let r = bgpc::color_bgpc(g, &order, schedule, &pool);
        verify_bgpc(g, &r.colors).unwrap_or_else(|e| panic!("{name}: {e}"));
        pin(name, &r.colors, want);
    }
}

fn check_d2gc(g: &Graph, schedules: &[Schedule], golden: &[(&str, u64)]) {
    let order = Ordering::Natural.vertex_order_d2(g);
    let pool = Pool::new(1);
    assert_eq!(schedules.len(), golden.len());
    for (schedule, &(name, want)) in schedules.iter().zip(golden) {
        assert_eq!(schedule.name(), name);
        let r = bgpc::d2gc::color_d2gc(g, &order, schedule, &pool);
        verify_d2gc(g, &r.colors).unwrap_or_else(|e| panic!("{name}: {e}"));
        pin(name, &r.colors, want);
    }
}

fn bitstamp_instance() -> Csr {
    sparse::gen::bipartite_uniform(200, 400, 6000, 11)
}

fn stamp_instance() -> Csr {
    sparse::gen::bipartite_skewed(300, 2000, 20000, 1.0, 600, 7)
}

fn mesh() -> Graph {
    Graph::from_symmetric_matrix(&sparse::gen::grid3d(8, 8, 8, 1))
}

fn powerlaw() -> Graph {
    Graph::from_symmetric_matrix(&sparse::gen::chung_lu(1500, 12000, 2.1, 300, true, 3))
}

/// A deterministic delta: the first `k` absent off-diagonal edges of a
/// row-major scan with stride `step`, and the first off-diagonal entry of
/// every `step`-th row.
fn fixed_delta(m: &Csr, k: usize, step: usize) -> CsrDelta {
    let mut ins = Vec::new();
    let mut del = Vec::new();
    'scan: for r in (0..m.nrows()).step_by(step) {
        for c in (r % step..m.ncols()).step_by(step) {
            if c != r && !m.contains(r, c as u32) {
                ins.push((r as u32, c as u32));
                break;
            }
        }
        if let Some(&c) = m.row(r).iter().find(|&&c| c as usize != r) {
            del.push((r as u32, c));
        }
        if ins.len() >= k && del.len() >= k {
            break 'scan;
        }
    }
    ins.truncate(k);
    del.truncate(k);
    CsrDelta::try_new(ins, del).unwrap()
}

#[test]
fn bgpc_bitstamp_colorings_are_pinned() {
    let g = BipartiteGraph::from_matrix(&bitstamp_instance());
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
            ("V-N2-B1", 0xaf0402d304ca2350),
            ("V-N2-B2", 0x45e6ffb48f89c38c),
            ("N1-N2-B1", 0xe89a091e023eba76),
            ("N1-N2-B2", 0x4d31949f47dc3129),
        ],
    );
}

#[test]
fn bgpc_stamp_colorings_are_pinned() {
    let g = BipartiteGraph::from_matrix(&stamp_instance());
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
            ("V-N2-B1", 0x5e0b40491243e9b9),
            ("V-N2-B2", 0x5d7546bbc8959c69),
            ("N1-N2-B1", 0x751130dd4f39d2f6),
            ("N1-N2-B2", 0x29947d5442929371),
        ],
    );
}

#[test]
fn d2gc_mesh_colorings_are_pinned() {
    let g = mesh();
    assert!(g.max_degree() <= bgpc::tuning::DENSE_FORBIDDEN_CUTOFF);
    check_d2gc(
        &g,
        &schedules_with_balance(),
        &[
            ("V-V", 0xa8212117a5aad181),
            ("V-V-64", 0xa8212117a5aad181),
            ("V-V-64D", 0xa8212117a5aad181),
            ("V-N∞", 0xa8212117a5aad181),
            ("V-N1", 0xa8212117a5aad181),
            ("V-N2", 0xa8212117a5aad181),
            ("N1-N2", 0x6a3e3a8cea9209f9),
            ("N2-N2", 0x502695af46c4ca96),
            ("V-N2-B1", 0x04b545aebc88dd05),
            ("V-N2-B2", 0x7e00f96d18774e6e),
            ("N1-N2-B1", 0xa20b4f760a20b185),
            ("N1-N2-B2", 0xfeefb07be995c3ad),
        ],
    );
}

#[test]
fn d2gc_stamp_colorings_are_pinned() {
    let g = powerlaw();
    assert!(g.max_degree() > bgpc::tuning::DENSE_FORBIDDEN_CUTOFF);
    check_d2gc(
        &g,
        &[Schedule::v_v(), Schedule::n1_n2(), Schedule::n2_n2()],
        &[("V-V", 0x1d2a1db8704cc1c3), ("N1-N2", 0x6d80d043da05e262), ("N2-N2", 0x5200950e5e4c7f19)],
    );
}

#[test]
fn sequential_baselines_are_pinned() {
    for (name, m, want) in [
        ("bitstamp", bitstamp_instance(), 0xd180349ca1c3395a),
        ("stamp", stamp_instance(), 0xd4bf4627ee11bcf0),
    ] {
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (colors, _) = bgpc::seq::color_bgpc_seq(&g, &order);
        verify_bgpc(&g, &colors).unwrap();
        pin(name, &colors, want);
    }
    for (name, g, want) in [("mesh", mesh(), 0xa8212117a5aad181), ("powerlaw", powerlaw(), 0x1d2a1db8704cc1c3)] {
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (colors, _) = bgpc::seq::color_d2gc_seq(&g, &order);
        verify_d2gc(&g, &colors).unwrap();
        pin(name, &colors, want);
    }
}

#[test]
fn bgpc_incremental_recolor_is_pinned() {
    let m = bitstamp_instance();
    let g = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(1);
    let base = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
    let applied = apply_delta(&m, &fixed_delta(&m, 6, 7)).unwrap();
    let g2 = BipartiteGraph::from_matrix(&applied.matrix);
    let r = recolor_bgpc_incremental(
        &g2,
        &base.colors,
        applied.dirty_bgpc(),
        &order,
        &Schedule::n1_n2(),
        &pool,
        RunnerOpts::default(),
    );
    assert!(r.degraded.is_none());
    verify_bgpc(&g2, &r.colors).unwrap();
    pin("incremental N1-N2", &r.colors, 0x158a68d1d7d60639);
}

#[test]
fn d2gc_incremental_recolor_is_pinned() {
    let m = sparse::gen::grid3d(8, 8, 8, 1);
    let g = Graph::from_symmetric_matrix(&m);
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(1);
    let base = bgpc::d2gc::color_d2gc(&g, &order, &Schedule::n1_n2(), &pool);
    let delta = fixed_delta(&m, 4, 29).symmetrized().unwrap();
    let applied = apply_delta(&m, &delta).unwrap();
    let g2 = Graph::from_symmetric_matrix(&applied.matrix);
    let r = recolor_d2gc_incremental(
        &g2,
        &base.colors,
        &applied.dirty_d2gc(),
        &order,
        &Schedule::n1_n2(),
        &pool,
        RunnerOpts::default(),
    );
    assert!(r.degraded.is_none());
    verify_d2gc(&g2, &r.colors).unwrap();
    pin("incremental N1-N2", &r.colors, 0x23a50e7548bc4d0e);
}
