//! Fail-point registry for fault-injection testing.
//!
//! Kernels call [`fire`] at strategic points (e.g. `bgpc.color`,
//! `bgpc.conflict`); production runs pay a single relaxed atomic load per
//! call. Tests [`arm`] a point with a [`FaultAction`] to inject a panic or
//! a stall into a specific phase — optionally on a specific thread — and
//! then assert that the containment machinery ([`crate::Pool::try_run`],
//! [`crate::contain`]) recovers.
//!
//! Points are keyed by name and the registry is process-global, so
//! concurrently running tests must use distinct point names (or distinct
//! test binaries). [`reset`] clears everything and is intended for
//! single-binary harnesses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed fail point does when it fires.
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// Panic with a recognizable `fail point` message.
    Panic,
    /// Sleep for the given duration (stall injection).
    Stall(Duration),
    /// Service-layer structured injection: the call site truncates its
    /// write after `n` bytes (a torn frame / torn cache entry). Only
    /// meaningful through [`consume`] — sites that can't truncate treat a
    /// firing `Torn` like [`FaultAction::Panic`] when it arrives via
    /// [`fire`].
    Torn(usize),
    /// Block until the named point has fired at least once: a gate that
    /// holds threads back until some other thread has reached a given
    /// spot, turning a scheduling-dependent interleaving into a fixed
    /// one. The awaited point must be armed before the gate can fire.
    Gate(&'static str),
}

struct Armed {
    point: &'static str,
    action: FaultAction,
    /// Firings left; an exhausted point stays registered for hit counting.
    remaining: usize,
    /// Restrict firing to one team thread id.
    thread: Option<usize>,
    hits: usize,
}

/// Fast-path gate: false until the first `arm` call of the process, so the
/// hot kernels never touch the registry mutex in production.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> MutexGuard<'static, Vec<Armed>> {
    static REG: OnceLock<Mutex<Vec<Armed>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        // A fired Panic action unwinds through test code that may hold no
        // other locks; the registry itself is only mutated atomically, so
        // recover from poisoning.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Arms `point` to fire `action` once, on any thread.
pub fn arm(point: &'static str, action: FaultAction) {
    arm_with(point, action, 1, None);
}

/// Arms `point` to fire `action` up to `times` times, optionally only on
/// team thread `thread`. Re-arming a point replaces its previous spec.
pub fn arm_with(point: &'static str, action: FaultAction, times: usize, thread: Option<usize>) {
    let mut reg = registry();
    reg.retain(|a| a.point != point);
    reg.push(Armed {
        point,
        action,
        remaining: times,
        thread,
        hits: 0,
    });
    ANY_ARMED.store(true, Ordering::SeqCst);
}

/// Removes `point` from the registry (no-op if absent).
pub fn disarm(point: &'static str) {
    let mut reg = registry();
    reg.retain(|a| a.point != point);
    if reg.is_empty() {
        ANY_ARMED.store(false, Ordering::SeqCst);
    }
}

/// Clears every armed point.
pub fn reset() {
    let mut reg = registry();
    reg.clear();
    ANY_ARMED.store(false, Ordering::SeqCst);
}

/// Number of times `point` has fired since it was (last) armed.
pub fn hits(point: &str) -> usize {
    registry()
        .iter()
        .find(|a| a.point == point)
        .map(|a| a.hits)
        .unwrap_or(0)
}

/// Evaluation site: kernels call this inside their parallel loops.
///
/// Costs one relaxed atomic load unless something is armed anywhere in the
/// process; a firing `Panic` action unwinds with a message naming the point
/// and thread.
#[inline]
pub fn fire(point: &'static str, tid: usize) {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return;
    }
    fire_slow(point, tid);
}

#[cold]
fn fire_slow(point: &'static str, tid: usize) {
    let Some(action) = take_action(point, tid) else {
        return;
    };
    match action {
        FaultAction::Panic | FaultAction::Torn(_) => {
            panic!("fail point `{point}` fired on thread {tid}")
        }
        FaultAction::Stall(d) => std::thread::sleep(d),
        FaultAction::Gate(awaited) => {
            while hits(awaited) == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

/// Claims one firing of `point` without executing it, for call sites that
/// implement the action themselves (the serving layer's torn-frame and
/// aborted-cache-write injections: write `n` bytes, then fail). Returns
/// `None` — at the cost of one relaxed load — when nothing is armed, so
/// production paths stay as cheap as [`fire`].
#[inline]
pub fn consume(point: &'static str, tid: usize) -> Option<FaultAction> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    take_action(point, tid)
}

/// Decrements and returns the armed action for `point`, honoring the
/// thread filter and remaining-count bookkeeping shared by [`fire`] and
/// [`consume`].
#[cold]
fn take_action(point: &'static str, tid: usize) -> Option<FaultAction> {
    let mut reg = registry();
    let armed = reg.iter_mut().find(|a| a.point == point)?;
    if armed.remaining == 0 {
        return None;
    }
    if let Some(want) = armed.thread {
        if want != tid {
            return None;
        }
    }
    armed.remaining -= 1;
    armed.hits += 1;
    Some(armed.action)
    // Guard dropped on return: never panic while holding the registry lock.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Each test uses unique point names: the registry is process-global and
    // tests run concurrently.

    #[test]
    fn unarmed_point_is_a_noop() {
        fire("test.noop", 0);
        assert_eq!(hits("test.noop"), 0);
    }

    #[test]
    fn armed_panic_fires_once() {
        arm("test.once", FaultAction::Panic);
        let err = catch_unwind(|| fire("test.once", 3)).expect_err("must fire");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("test.once") && msg.contains("thread 3"), "{msg}");
        // Exhausted: the second evaluation passes through.
        fire("test.once", 3);
        assert_eq!(hits("test.once"), 1);
        disarm("test.once");
    }

    #[test]
    fn gate_holds_until_the_awaited_point_fires() {
        use std::sync::atomic::AtomicUsize;
        arm_with("test.gate.open", FaultAction::Stall(Duration::ZERO), 1, Some(1));
        arm_with("test.gate", FaultAction::Gate("test.gate.open"), usize::MAX, None);
        let passed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                fire("test.gate", 0);
                passed.fetch_add(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(passed.load(Ordering::SeqCst), 0, "gate opened early");
            fire("test.gate.open", 1);
        });
        assert_eq!(passed.load(Ordering::SeqCst), 1);
        // Once open, the gate passes straight through.
        fire("test.gate", 2);
        assert_eq!(hits("test.gate"), 2);
        disarm("test.gate");
        disarm("test.gate.open");
    }

    #[test]
    fn thread_filter_restricts_firing() {
        arm_with("test.tid", FaultAction::Panic, 1, Some(2));
        fire("test.tid", 0);
        fire("test.tid", 1);
        assert_eq!(hits("test.tid"), 0);
        let err = catch_unwind(|| fire("test.tid", 2));
        assert!(err.is_err());
        assert_eq!(hits("test.tid"), 1);
        disarm("test.tid");
    }

    #[test]
    fn stall_sleeps_without_panicking() {
        arm("test.stall", FaultAction::Stall(Duration::from_millis(20)));
        let t0 = std::time::Instant::now();
        fire("test.stall", 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(hits("test.stall"), 1);
        disarm("test.stall");
    }

    #[test]
    fn multi_shot_arming_fires_repeatedly() {
        arm_with("test.multi", FaultAction::Stall(Duration::ZERO), 3, None);
        for _ in 0..5 {
            fire("test.multi", 0);
        }
        assert_eq!(hits("test.multi"), 3);
        disarm("test.multi");
    }

    #[test]
    fn consume_returns_action_without_executing() {
        arm_with("test.consume", FaultAction::Torn(5), 2, None);
        assert!(matches!(
            consume("test.consume", 0),
            Some(FaultAction::Torn(5))
        ));
        assert!(matches!(
            consume("test.consume", 1),
            Some(FaultAction::Torn(5))
        ));
        // Exhausted after `times` firings; hits are shared with `fire`.
        assert!(consume("test.consume", 0).is_none());
        assert_eq!(hits("test.consume"), 2);
        disarm("test.consume");
        assert!(consume("test.consume", 0).is_none());
    }

    #[test]
    fn consume_honors_thread_filter() {
        arm_with("test.consume.tid", FaultAction::Panic, 1, Some(3));
        assert!(consume("test.consume.tid", 0).is_none());
        assert!(matches!(
            consume("test.consume.tid", 3),
            Some(FaultAction::Panic)
        ));
        disarm("test.consume.tid");
    }

    #[test]
    fn torn_action_via_fire_panics() {
        arm("test.torn.fire", FaultAction::Torn(8));
        let err = catch_unwind(|| fire("test.torn.fire", 1)).expect_err("must fire");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("test.torn.fire"), "{msg}");
        disarm("test.torn.fire");
    }

    #[test]
    fn disarm_clears_point() {
        arm("test.disarm", FaultAction::Panic);
        disarm("test.disarm");
        fire("test.disarm", 0); // must not panic
        assert_eq!(hits("test.disarm"), 0);
    }

    #[test]
    fn pool_worker_fault_is_contained() {
        let pool = crate::Pool::new(4);
        arm_with("test.pool", FaultAction::Panic, 1, Some(1));
        let err = pool
            .try_run(|tid| fire("test.pool", tid))
            .expect_err("armed point must panic on tid 1");
        assert_eq!(err.threads(), vec![1]);
        assert!(err.first_message().contains("test.pool"));
        disarm("test.pool");
        pool.try_run(|_| {}).expect("pool survives injection");
    }

    #[test]
    fn catch_unwind_is_unwind_safe_enough() {
        // `fire` may unwind mid-region; AssertUnwindSafe mirrors the pool's
        // own containment and must observe consistent registry state after.
        arm("test.state", FaultAction::Panic);
        let _ = catch_unwind(AssertUnwindSafe(|| fire("test.state", 0)));
        assert_eq!(hits("test.state"), 1);
        disarm("test.state");
    }
}
