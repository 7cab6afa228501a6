//! Golden colorings of the walks around the speculative driver:
//! Jones–Plassmann, the recoloring post-passes and distance-1 coloring.
//! FNV-1a hashes are pinned so a refactor of these walks has to keep
//! them byte-identical (JP's round counts too).
//!
//! The BGPC instances straddle a 64-color palette (the register-word
//! limit of the vertex gather): `small_nets` needs fewer colors, and
//! `giant_nets` has nets of hundreds of pins. The D2GC mesh stays in the
//! word, the power-law graph leaves it. JP is pinned at 1 and 3 threads
//! (its result is thread-invariant by construction), the parallel
//! recoloring pass at 1 thread. If a hash moves on purpose, the failure
//! message prints the new value.

use bgpc::d1gc::verify_d1gc;
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{Balance, Color, Schedule};
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

fn pin(name: &str, colors: &[Color], want: u64) {
    let got = fnv1a(colors);
    assert_eq!(got, want, "{name}: coloring hash moved to {got:#018x}");
}

/// A valid coloring that is no first-fit fixpoint: the greedy coloring
/// with its class ids reversed, so the descending-class pass visits the
/// smallest greedy classes first and can move their members down.
fn reversed_classes((colors, k): (Vec<Color>, usize)) -> Vec<Color> {
    colors.iter().map(|&c| k as Color - 1 - c).collect()
}

fn small_nets() -> BipartiteGraph {
    BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(200, 400, 6000, 11))
}

fn giant_nets() -> BipartiteGraph {
    BipartiteGraph::from_matrix(&sparse::gen::bipartite_skewed(
        300, 2000, 20000, 1.0, 600, 7,
    ))
}

fn mesh() -> Graph {
    Graph::from_symmetric_matrix(&sparse::gen::grid3d(8, 8, 8, 1))
}

fn powerlaw() -> Graph {
    Graph::from_symmetric_matrix(&sparse::gen::chung_lu(1500, 12000, 2.1, 300, true, 3))
}

#[test]
fn jp_bgpc_is_pinned() {
    for (name, g, want, want_rounds) in [
        ("small_nets", small_nets(), 0xeebb03e8c5bff5f5, 280),
        ("giant_nets", giant_nets(), 0x8c2a3033de7bd7f8, 1386),
    ] {
        for threads in [1, 3] {
            let r = bgpc::jp::color_jp(&g, &Pool::new(threads), 17);
            verify_bgpc(&g, &r.colors).unwrap();
            pin(&format!("jp {name} @{threads}"), &r.colors, want);
            assert_eq!(r.rounds, want_rounds, "jp {name} @{threads} rounds");
        }
    }
}

#[test]
fn jp_d2gc_is_pinned() {
    for (name, g, want, want_rounds) in [
        ("mesh", mesh(), 0xebb0e5c807d0980d, 116),
        ("powerlaw", powerlaw(), 0x8d52d894870f54ed, 410),
    ] {
        for threads in [1, 3] {
            let r = bgpc::jp::color_jp(&g, &Pool::new(threads), 17);
            verify_d2gc(&g, &r.colors).unwrap();
            pin(&format!("jp {name} @{threads}"), &r.colors, want);
            assert_eq!(r.rounds, want_rounds, "jp {name} @{threads} rounds");
        }
    }
}

#[test]
fn bgpc_recoloring_passes_are_pinned() {
    for (name, g, want_seq, want_par) in [
        (
            "small_nets",
            small_nets(),
            0x8f22ec2f2f6ae935,
            0x8f22ec2f2f6ae935,
        ),
        (
            "giant_nets",
            giant_nets(),
            0x82cf8d18aab1ebda,
            0x82cf8d18aab1ebda,
        ),
    ] {
        let order = Ordering::Random(5).vertex_order_bgpc(&g);
        let start = reversed_classes(bgpc::seq::color_bgpc_seq(&g, &order));
        let mut seq = start.clone();
        bgpc::recolor::reduce_colors_seq(&g, &mut seq);
        verify_bgpc(&g, &seq).unwrap();
        assert_ne!(seq, start, "{name}: the pass must move some vertex");
        pin(&format!("seq recolor {name}"), &seq, want_seq);
        let mut par = start.clone();
        bgpc::recolor::reduce_colors(&g, &mut par, &Pool::new(1));
        verify_bgpc(&g, &par).unwrap();
        assert_ne!(par, start, "{name}: the pass must move some vertex");
        pin(&format!("par recolor {name}"), &par, want_par);
    }
}

#[test]
fn d2gc_recoloring_pass_is_pinned() {
    for (name, g, want) in [
        ("mesh", mesh(), 0xb2032daad49a1319),
        ("powerlaw", powerlaw(), 0x8b72d9bd4ca1e6d8),
    ] {
        let order = Ordering::Random(5).vertex_order_d2(&g);
        let start = reversed_classes(bgpc::seq::color_d2gc_seq(&g, &order));
        let mut colors = start.clone();
        bgpc::recolor::reduce_colors_seq(&g, &mut colors);
        assert_ne!(colors, start, "{name}: the pass must move some vertex");
        verify_d2gc(&g, &colors).unwrap();
        pin(&format!("seq recolor {name}"), &colors, want);
    }
}

#[test]
fn d1gc_colorings_are_pinned() {
    for (name, g, want_seq, want_par) in [
        (
            "mesh",
            mesh(),
            [0x8b5f872090ea2325, 0x9e29f09e6be8d015],
            [0x8b5f872090ea2325, 0x19d2911144e43f25, 0x2ee15be3bb287925],
        ),
        (
            "powerlaw",
            powerlaw(),
            [0xf308e277b3e7aab2, 0x21c16f532fd8c3fd],
            [0xf308e277b3e7aab2, 0x3fe08e1ecc58c67c, 0xa56c595b6c37b4b7],
        ),
    ] {
        let orders = [
            ("natural", Ordering::Natural.vertex_order_d2(&g)),
            ("random", Ordering::Random(5).vertex_order_d2(&g)),
        ];
        for ((order_name, order), want) in orders.iter().zip(want_seq) {
            let (colors, _) = bgpc::d1gc::color_d1gc_seq(&g, order);
            verify_d1gc(&g, &colors).unwrap();
            pin(&format!("d1 seq {name} {order_name}"), &colors, want);
        }
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let balances = [Balance::Unbalanced, Balance::B1, Balance::B2];
        for (balance, want) in balances.into_iter().zip(want_par) {
            let schedule = Schedule::v_v_64d().with_balance(balance);
            let colors = bgpc::d1gc::color_d1gc(&g, &order, &schedule, &pool).colors;
            verify_d1gc(&g, &colors).unwrap();
            pin(&format!("d1 {name} {}", balance.label()), &colors, want);
        }
    }
}
