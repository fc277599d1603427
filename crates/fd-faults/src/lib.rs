//! # fd-faults — deterministic fault injection for the discovery stack
//!
//! A dependency-free, seeded chaos layer built under the same shim policy as
//! `rand`/`proptest`/`fd-telemetry`: no external crates, ever. Production
//! code declares named **injection sites** with [`inject!`]; a test harness
//! installs a [`FaultPlan`] describing which sites misbehave, how, and on
//! which hits. Everything a plan does is a pure function of `(seed, site,
//! hit index)`, so a chaos run replays bit-for-bit from its seed.
//!
//! ## Zero cost when disabled
//!
//! The crate is always compiled, but injection is gated twice, exactly like
//! `fd-telemetry`:
//!
//! 1. **Compile time** — without the `faults` cargo feature, [`is_active`]
//!    is a `const`-foldable `false`, so every [`inject!`] expansion is dead
//!    code the optimizer deletes: no atomics, no locks, no branches.
//! 2. **Run time** — with the feature on, [`is_active`] is one relaxed
//!    atomic load that stays `false` until [`install`] arms a plan. A
//!    feature-on binary with no plan installed pays one load per site hit.
//!
//! The gating lives in `is_active()` rather than in `#[cfg]` arms inside
//! the macro: feature flags inside a `macro_rules!` body would be evaluated
//! against the *calling* crate's features, which is the wrong semantics for
//! a shared facility.
//!
//! ## Fault model
//!
//! Four [`FaultAction`]s, split by who executes them:
//!
//! * **Panic** and **Delay** are performed *by the injection layer itself*
//!   (the macro panics with [`PANIC_PREFIX`]` + site`, or sleeps). Sites
//!   need no handling code; panics are meant to be contained by
//!   `fd_core::isolate`, and delays exercise rebalancing
//!   (work stealing) and watchdog paths.
//! * **AllocFail** and **BudgetTrip** are *cooperative*: [`inject!`]
//!   returns `Some(`[`Injected`]`)` and the site decides how to degrade —
//!   the PLI cache falls back to uncached derivation, budget-aware loops
//!   cancel their token. A site that cannot honour a cooperative action
//!   ignores the value; the fault still counts as fired.
//!
//! ## Schedules
//!
//! Each [`FaultRule`] fires according to a [`Schedule`] evaluated against
//! the site's monotonically increasing hit counter (1-based):
//! every hit, exactly the *n*-th hit, every *k*-th hit, or an independent
//! per-hit probability derived by hashing `(seed, site, hit)` — never from
//! a shared mutable RNG, so concurrency cannot perturb the decisions.
//!
//! ```
//! use fd_faults::{FaultAction, FaultPlan, Schedule};
//!
//! let plan = FaultPlan::new(42)
//!     .with("pli_cache.insert", FaultAction::AllocFail, Schedule::Every(2))
//!     .with("parallel.worker", FaultAction::Delay(std::time::Duration::from_millis(1)),
//!           Schedule::Probability(0.25));
//! // Same plan, from the text grammar:
//! let parsed = FaultPlan::parse(
//!     42,
//!     "pli_cache.insert=alloc_fail@every:2;parallel.worker=delay:1@p:0.25",
//! ).unwrap();
//! assert_eq!(plan, parsed);
//! ```
//!
//! Site patterns are exact names, or prefix wildcards ending in `*`
//! (`pli_cache.*` matches every cache site).
//!
//! ## Observability
//!
//! Every fired fault increments an internal per-site counter (queryable via
//! [`fired_counts`] even in telemetry-off builds) and, when `fd-telemetry`
//! recording is enabled, a `faults.fired.<site>` telemetry counter — so a
//! chaos run's metrics snapshot shows exactly which faults hit.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Duration;

/// The message prefix of every injected panic; [`is_injected_panic`] keys on
/// it, and `fd_core::is_transient_panic` classifies such panics as
/// *transient* (worth a bounded retry).
pub const PANIC_PREFIX: &str = "fd-faults: injected panic at ";

/// True when `message` is the payload of a panic raised by [`inject!`].
pub fn is_injected_panic(message: &str) -> bool {
    message.starts_with(PANIC_PREFIX)
}

/// True when the `faults` cargo feature was compiled in (regardless of
/// whether a plan is currently installed).
#[inline]
pub const fn compiled() -> bool {
    cfg!(feature = "faults")
}

#[cfg(feature = "faults")]
mod active_flag {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ACTIVE: AtomicBool = AtomicBool::new(false);

    #[inline]
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    pub fn set_active(on: bool) {
        ACTIVE.store(on, Ordering::Relaxed);
    }
}

/// Whether a fault plan is currently installed. Compile-time `false`
/// without the `faults` feature; a relaxed atomic load with it.
#[cfg(feature = "faults")]
#[inline]
pub fn is_active() -> bool {
    active_flag::is_active()
}

/// Whether a fault plan is currently installed. Compile-time `false`
/// without the `faults` feature; a relaxed atomic load with it.
#[cfg(not(feature = "faults"))]
#[inline]
pub const fn is_active() -> bool {
    false
}

/// A cooperative fault returned by [`inject!`] for the site to honour.
/// Panics and delays never reach the caller — the injection layer performs
/// them itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injected {
    /// Pretend an allocation failed: the site should degrade (drop a cache
    /// entry, fall back to an uncached path) and keep going.
    AllocFail,
    /// Force the site's budget machinery to trip: the site should cancel
    /// its budget token (typically with `Termination::DeadlineExceeded`)
    /// and let the normal anytime machinery wind the run down.
    BudgetTrip,
}

/// What a matched rule does when its schedule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Panic with [`PANIC_PREFIX`] + the site name (performed by the
    /// injection layer; contained by `catch_unwind` isolation upstream).
    Panic,
    /// Sleep for the given duration (performed by the injection layer),
    /// simulating a stuck worker or a slow I/O path.
    Delay(Duration),
    /// Return [`Injected::AllocFail`] to the site.
    AllocFail,
    /// Return [`Injected::BudgetTrip`] to the site.
    BudgetTrip,
}

impl FaultAction {
    /// True when the action cannot change a cooperating caller's *result* —
    /// only its timing or its cache economics. Delays just stall; alloc
    /// failures degrade to uncached computation that is byte-identical by
    /// the cache-transparency invariant. Panics kill the attempt and budget
    /// trips truncate it, so both are lossy.
    pub fn is_non_lossy(&self) -> bool {
        matches!(self, FaultAction::Delay(_) | FaultAction::AllocFail)
    }

    fn label(&self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::AllocFail => "alloc_fail",
            FaultAction::BudgetTrip => "budget_trip",
        }
    }
}

/// When a rule fires, evaluated against the site's 1-based hit counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Fire on every hit.
    Always,
    /// Fire independently with this probability per hit, decided by hashing
    /// `(seed, site, hit)` — deterministic for a given plan, immune to
    /// thread interleaving.
    Probability(f64),
    /// Fire on exactly the `n`-th hit (1-based).
    Nth(u64),
    /// Fire on every `k`-th hit (hits `k`, `2k`, `3k`, …).
    Every(u64),
}

impl Schedule {
    fn fires(&self, seed: u64, site: &str, hit: u64) -> bool {
        match *self {
            Schedule::Always => true,
            Schedule::Nth(n) => hit == n.max(1),
            Schedule::Every(k) => hit.is_multiple_of(k.max(1)),
            Schedule::Probability(p) => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                // 53 uniform bits from a splitmix of (seed, site, hit):
                // deterministic, stateless, independent across hits.
                let v = splitmix64(seed ^ fnv1a(site) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                ((v >> 11) as f64) / ((1u64 << 53) as f64) < p
            }
        }
    }
}

/// One entry of a [`FaultPlan`]: a site pattern, the action, its schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Exact site name, or a prefix wildcard ending in `*`.
    pub site: String,
    /// What happens when the schedule fires.
    pub action: FaultAction,
    /// When it happens.
    pub schedule: Schedule,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A seeded, deterministic fault schedule: an ordered rule list evaluated
/// against every [`inject!`] hit. The first matching rule whose schedule
/// fires wins; later rules get a chance only when earlier ones stay quiet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed feeding every [`Schedule::Probability`] decision.
    pub seed: u64,
    /// Rules in priority order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no rules — installing it still flips sites to the
    /// "consult the plan" slow path, which is occasionally useful for
    /// measuring the active-but-quiet overhead).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Builder: append a rule.
    pub fn with(
        mut self,
        site: impl Into<String>,
        action: FaultAction,
        schedule: Schedule,
    ) -> FaultPlan {
        self.rules.push(FaultRule { site: site.into(), action, schedule });
        self
    }

    /// True when every rule's action is non-lossy (see
    /// [`FaultAction::is_non_lossy`]): a cooperating pipeline under this
    /// plan must produce byte-identical results to a fault-free run.
    pub fn is_non_lossy(&self) -> bool {
        self.rules.iter().all(|r| r.action.is_non_lossy())
    }

    /// Parses the compact text grammar (documented in DESIGN.md §13):
    ///
    /// ```text
    /// plan   := entry (';' entry)*
    /// entry  := site '=' action ('@' sched)?
    /// action := 'panic' | 'delay:<ms>' | 'alloc_fail' | 'budget_trip'
    /// sched  := 'always' | 'p:<float>' | 'nth:<n>' | 'every:<k>'
    /// ```
    ///
    /// Omitting the schedule means [`Schedule::Always`]. Whitespace around
    /// tokens is ignored; empty entries (stray `;`) are skipped.
    pub fn parse(seed: u64, text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for entry in text.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, spec) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is missing '='"))?;
            let (action_text, sched_text) = match spec.split_once('@') {
                Some((a, s)) => (a.trim(), Some(s.trim())),
                None => (spec.trim(), None),
            };
            let action = match action_text.split_once(':') {
                Some(("delay", ms)) => FaultAction::Delay(Duration::from_millis(
                    ms.trim().parse::<u64>().map_err(|_| {
                        format!("fault entry {entry:?}: delay wants milliseconds, got {ms:?}")
                    })?,
                )),
                None if action_text == "panic" => FaultAction::Panic,
                None if action_text == "alloc_fail" => FaultAction::AllocFail,
                None if action_text == "budget_trip" => FaultAction::BudgetTrip,
                _ => return Err(format!("fault entry {entry:?}: unknown action {action_text:?}")),
            };
            let schedule = match sched_text {
                None => Schedule::Always,
                Some("always") => Schedule::Always,
                Some(s) => match s.split_once(':') {
                    Some(("p", p)) => Schedule::Probability(p.trim().parse::<f64>().map_err(
                        |_| format!("fault entry {entry:?}: bad probability {p:?}"),
                    )?),
                    Some(("nth", n)) => Schedule::Nth(n.trim().parse::<u64>().map_err(|_| {
                        format!("fault entry {entry:?}: bad hit index {n:?}")
                    })?),
                    Some(("every", k)) => Schedule::Every(k.trim().parse::<u64>().map_err(
                        |_| format!("fault entry {entry:?}: bad stride {k:?}"),
                    )?),
                    _ => return Err(format!("fault entry {entry:?}: unknown schedule {s:?}")),
                },
            };
            plan.rules.push(FaultRule { site: site.trim().to_string(), action, schedule });
        }
        Ok(plan)
    }
}

/// FNV-1a over the site name: a stable, dependency-free string hash feeding
/// the probability schedule (never used for table placement, so its
/// distribution quality is ample).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: one multiply-xorshift cascade turning a counter
/// into 64 well-mixed bits.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct State {
    plan: FaultPlan,
    /// 1-based hit counters per site (site names are `&'static` literals).
    hits: HashMap<&'static str, u64>,
    /// Fired-fault counts per site (BTreeMap: deterministic report order).
    fired: BTreeMap<String, u64>,
}

/// One global mutex guards the whole injection state. Injection is a chaos-
/// testing facility: when active, correctness and determinism beat
/// throughput, and when inactive the lock is never touched ([`is_active`]
/// is checked first by the macro).
static STATE: Mutex<Option<State>> = Mutex::new(None);

fn lock_state() -> std::sync::MutexGuard<'static, Option<State>> {
    // An injected panic can poison the lock mid-test; the state is still
    // consistent (every mutation is a single-step insert/increment).
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `plan`, arming every [`inject!`] site, and resets hit and fired
/// counters. A no-op without the `faults` feature (the sites are compiled
/// away, so nothing could fire anyway).
pub fn install(plan: FaultPlan) {
    let mut state = lock_state();
    *state = Some(State { plan, hits: HashMap::new(), fired: BTreeMap::new() });
    #[cfg(feature = "faults")]
    active_flag::set_active(true);
}

/// Disarms injection and returns the per-site fired counts of the plan that
/// was installed (empty when none was).
pub fn clear() -> Vec<(String, u64)> {
    let mut state = lock_state();
    #[cfg(feature = "faults")]
    active_flag::set_active(false);
    match state.take() {
        Some(s) => s.fired.into_iter().collect(),
        None => Vec::new(),
    }
}

/// Per-site fired counts of the currently installed plan, in site order.
pub fn fired_counts() -> Vec<(String, u64)> {
    lock_state()
        .as_ref()
        .map(|s| s.fired.iter().map(|(k, &v)| (k.clone(), v)).collect())
        .unwrap_or_default()
}

/// Total faults fired by the currently installed plan.
pub fn total_fired() -> u64 {
    lock_state().as_ref().map(|s| s.fired.values().sum()).unwrap_or(0)
}

/// An RAII guard that [`clear`]s the installed plan on drop — the
/// convenient way to scope a plan to one test body even when the body
/// panics (deliberately or not).
pub struct PlanGuard {
    _private: (),
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        let _ = clear();
    }
}

/// [`install`] returning a [`PlanGuard`] that disarms on drop.
#[must_use = "dropping the guard immediately disarms the plan"]
pub fn install_guard(plan: FaultPlan) -> PlanGuard {
    install(plan);
    PlanGuard { _private: () }
}

/// The slow path behind [`inject!`]: counts the hit, consults the plan, and
/// performs or returns the fired action. Call sites should use the macro,
/// which skips this entirely (at compile time, feature-off) when inactive.
///
/// # Panics
/// Panics — deliberately — when a matching [`FaultAction::Panic`] rule
/// fires; the message starts with [`PANIC_PREFIX`].
pub fn check_site(site: &'static str) -> Option<Injected> {
    let fired_action = {
        let mut guard = lock_state();
        let state = guard.as_mut()?;
        let hit = state.hits.entry(site).or_insert(0);
        *hit += 1;
        let hit = *hit;
        let seed = state.plan.seed;
        let action = state
            .plan
            .rules
            .iter()
            .find(|r| r.matches(site) && r.schedule.fires(seed, site, hit))
            .map(|r| r.action);
        if let Some(action) = action {
            *state.fired.entry(site.to_string()).or_insert(0) += 1;
            if fd_telemetry::is_enabled() {
                // Fired faults are rare by construction; the dynamic-name
                // slow path is fine (same policy as budget trips).
                fd_telemetry::registry()
                    .counter_add_by_name(&format!("faults.fired.{site}"), 1);
                fd_telemetry::registry()
                    .counter_add_by_name(&format!("faults.fired_action.{}", action.label()), 1);
            }
        }
        action
        // Lock drops here: the action itself must run unlocked, or a Delay
        // would serialize every other site and a Panic would poison state.
    };
    match fired_action? {
        FaultAction::Panic => panic!("{PANIC_PREFIX}{site}"),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FaultAction::AllocFail => Some(Injected::AllocFail),
        FaultAction::BudgetTrip => Some(Injected::BudgetTrip),
    }
}

/// Declares a named injection site: `fd_faults::inject!("pli_cache.insert")`.
///
/// Evaluates to `Option<`[`Injected`]`>`. Panic and delay faults are
/// performed inside the macro (the caller never sees them); cooperative
/// faults come back as `Some(..)` for the site to honour. Without the
/// `faults` cargo feature the whole expansion is dead code behind a
/// compile-time `false` — zero instructions on every hot path.
#[macro_export]
macro_rules! inject {
    ($site:literal) => {{
        if $crate::is_active() {
            $crate::check_site($site)
        } else {
            ::core::option::Option::None
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that install plans (one process-global state).
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn compiled_matches_feature() {
        assert_eq!(compiled(), cfg!(feature = "faults"));
    }

    #[test]
    fn inactive_sites_fire_nothing() {
        let _l = test_lock();
        let _ = clear();
        assert_eq!(inject!("test.quiet"), None);
        assert!(fired_counts().is_empty());
        assert_eq!(total_fired(), 0);
    }

    #[test]
    fn parse_grammar_round_trips() {
        let plan = FaultPlan::parse(
            7,
            "a.b=panic@nth:3; c.*=delay:5@p:0.5; d=alloc_fail@every:2; e=budget_trip",
        )
        .expect("grammar parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].action, FaultAction::Panic);
        assert_eq!(plan.rules[0].schedule, Schedule::Nth(3));
        assert_eq!(plan.rules[1].action, FaultAction::Delay(Duration::from_millis(5)));
        assert_eq!(plan.rules[1].schedule, Schedule::Probability(0.5));
        assert_eq!(plan.rules[2].schedule, Schedule::Every(2));
        assert_eq!(plan.rules[3].schedule, Schedule::Always);
        assert!(FaultPlan::parse(0, "no-equals-sign").is_err());
        assert!(FaultPlan::parse(0, "a=explode").is_err());
        assert!(FaultPlan::parse(0, "a=panic@sometimes").is_err());
        assert!(FaultPlan::parse(0, "a=delay:often").is_err());
        assert_eq!(FaultPlan::parse(3, " ; ").expect("empty ok"), FaultPlan::new(3));
    }

    #[test]
    fn wildcard_patterns_prefix_match() {
        let rule = FaultRule {
            site: "pli_cache.*".into(),
            action: FaultAction::AllocFail,
            schedule: Schedule::Always,
        };
        assert!(rule.matches("pli_cache.insert"));
        assert!(rule.matches("pli_cache.derive"));
        assert!(!rule.matches("partition.product"));
        let exact = FaultRule {
            site: "a.b".into(),
            action: FaultAction::Panic,
            schedule: Schedule::Always,
        };
        assert!(exact.matches("a.b"));
        assert!(!exact.matches("a.b.c"));
    }

    #[test]
    fn probability_schedule_is_deterministic_and_seed_sensitive() {
        let s = Schedule::Probability(0.5);
        let a: Vec<bool> = (1..=64).map(|n| s.fires(1, "x", n)).collect();
        let b: Vec<bool> = (1..=64).map(|n| s.fires(1, "x", n)).collect();
        assert_eq!(a, b, "same seed must replay identically");
        let c: Vec<bool> = (1..=64).map(|n| s.fires(2, "x", n)).collect();
        assert_ne!(a, c, "different seeds must differ somewhere in 64 draws");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fired), "p=0.5 over 64 draws fired {fired}");
        assert!(!Schedule::Probability(0.0).fires(1, "x", 1));
        assert!(Schedule::Probability(1.0).fires(1, "x", 1));
    }

    #[test]
    fn non_lossy_classification() {
        assert!(FaultAction::Delay(Duration::ZERO).is_non_lossy());
        assert!(FaultAction::AllocFail.is_non_lossy());
        assert!(!FaultAction::Panic.is_non_lossy());
        assert!(!FaultAction::BudgetTrip.is_non_lossy());
        let lossy = FaultPlan::new(0).with("a", FaultAction::Panic, Schedule::Always);
        assert!(!lossy.is_non_lossy());
        let safe = FaultPlan::new(0).with("a", FaultAction::AllocFail, Schedule::Always);
        assert!(safe.is_non_lossy());
    }

    #[test]
    fn injected_panic_prefix_is_recognized() {
        assert!(is_injected_panic(&format!("{PANIC_PREFIX}some.site")));
        assert!(!is_injected_panic("index out of bounds"));
    }

    #[cfg(feature = "faults")]
    mod armed {
        use super::*;

        #[test]
        fn nth_schedule_fires_exactly_once_and_counts() {
            let _l = test_lock();
            let _g = install_guard(FaultPlan::new(0).with(
                "armed.nth",
                FaultAction::AllocFail,
                Schedule::Nth(2),
            ));
            assert_eq!(inject!("armed.nth"), None);
            assert_eq!(inject!("armed.nth"), Some(Injected::AllocFail));
            assert_eq!(inject!("armed.nth"), None);
            assert_eq!(fired_counts(), vec![("armed.nth".to_string(), 1)]);
            assert_eq!(total_fired(), 1);
        }

        #[test]
        fn every_schedule_fires_periodically() {
            let _l = test_lock();
            let _g = install_guard(FaultPlan::new(0).with(
                "armed.every",
                FaultAction::BudgetTrip,
                Schedule::Every(3),
            ));
            let fired: Vec<bool> =
                (0..9).map(|_| inject!("armed.every").is_some()).collect();
            assert_eq!(
                fired,
                vec![false, false, true, false, false, true, false, false, true]
            );
        }

        #[test]
        fn injected_panic_carries_the_site_name() {
            let _l = test_lock();
            let _g = install_guard(FaultPlan::new(0).with(
                "armed.boom",
                FaultAction::Panic,
                Schedule::Always,
            ));
            let payload = std::panic::catch_unwind(|| {
                let _ = inject!("armed.boom");
            })
            .expect_err("must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(is_injected_panic(&msg), "unexpected payload: {msg:?}");
            assert!(msg.ends_with("armed.boom"));
            // The fired count survived the unwind and clear() reports it.
            assert_eq!(fired_counts(), vec![("armed.boom".to_string(), 1)]);
        }

        #[test]
        fn unmatched_sites_stay_silent() {
            let _l = test_lock();
            let _g = install_guard(FaultPlan::new(0).with(
                "armed.other",
                FaultAction::AllocFail,
                Schedule::Always,
            ));
            assert_eq!(inject!("armed.quiet"), None);
            assert!(fired_counts().is_empty());
        }

        #[test]
        fn first_matching_firing_rule_wins() {
            let _l = test_lock();
            let _g = install_guard(
                FaultPlan::new(0)
                    .with("armed.prio", FaultAction::AllocFail, Schedule::Nth(2))
                    .with("armed.*", FaultAction::BudgetTrip, Schedule::Always),
            );
            // Hit 1: rule 1 quiet (nth:2) → rule 2 fires.
            assert_eq!(inject!("armed.prio"), Some(Injected::BudgetTrip));
            // Hit 2: rule 1 fires first.
            assert_eq!(inject!("armed.prio"), Some(Injected::AllocFail));
        }

        #[test]
        fn clear_returns_and_resets_fired_counts() {
            let _l = test_lock();
            install(FaultPlan::new(0).with("armed.cnt", FaultAction::AllocFail, Schedule::Always));
            let _ = inject!("armed.cnt");
            let _ = inject!("armed.cnt");
            let counts = clear();
            assert_eq!(counts, vec![("armed.cnt".to_string(), 2)]);
            assert!(!is_active());
            assert!(fired_counts().is_empty());
            // Reinstalling starts hit counters from scratch.
            let _g = install_guard(FaultPlan::new(0).with(
                "armed.cnt",
                FaultAction::AllocFail,
                Schedule::Nth(1),
            ));
            assert_eq!(inject!("armed.cnt"), Some(Injected::AllocFail));
        }

        #[test]
        fn delay_sleeps_and_returns_none() {
            let _l = test_lock();
            let _g = install_guard(FaultPlan::new(0).with(
                "armed.slow",
                FaultAction::Delay(Duration::from_millis(5)),
                Schedule::Always,
            ));
            let start = std::time::Instant::now();
            assert_eq!(inject!("armed.slow"), None);
            assert!(start.elapsed() >= Duration::from_millis(4));
            assert_eq!(total_fired(), 1);
        }
    }
}
