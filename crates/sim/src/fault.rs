//! Deterministic fault injection for the dataflow engines.
//!
//! A [`FaultPlan`] describes *what* to break — drop/duplicate/corrupt a
//! token, delay or flip a memory response, stick a node, exhaust a tag
//! space — and *when*: each fault class carries an injection budget, the
//! plan carries a cycle window, and a seeded PRNG picks which candidate
//! sites inside the window actually strike. The same plan on the same run
//! injects the same faults at the same cycles, every time.
//!
//! Engines that support injection (the tagged and ordered engines) accept a
//! plan through their config. Every applied fault is recorded twice: as a
//! [`FaultRecord`] in [`RunResult::faults`](crate::RunResult::faults) and,
//! when a probe is attached, as a
//! [`ProbeEvent::FaultInjected`]
//! event — one event per record, so probe parity is checkable. A run with
//! no plan takes a single `Option` test per candidate site and is
//! bit-identical to a run built before this layer existed.
//!
//! Faults never abort the simulation directly. They perturb the machine and
//! let the existing detection paths speak: a wrong answer against the
//! oracle, a [`SimError::UseAfterFree`](crate::SimError::UseAfterFree) or
//! [`SimError::TagOverflow`](crate::SimError::TagOverflow) sanitizer trip, a
//! deadlock report, or a watchdog
//! [`Outcome::TimedOut`](crate::Outcome::TimedOut).

use std::fmt;

use tyr_ir::Value;
use tyr_stats::probe::{FaultKind, Probe, ProbeEvent};

/// One applied fault, as recorded in
/// [`RunResult::faults`](crate::RunResult::faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Cycle the fault was applied at.
    pub cycle: u64,
    /// Node the fault was applied at (0 when no node is involved).
    pub node: u32,
    /// The fault class.
    pub kind: FaultKind,
    /// Human-readable description of exactly what was perturbed.
    pub detail: String,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {:>6}  {:<10} {}", self.cycle, self.kind.label(), self.detail)
    }
}

/// Injection budget for one fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The class to inject.
    pub kind: FaultKind,
    /// Maximum number of injections of this class.
    pub count: u32,
}

/// A deterministic fault-injection plan.
///
/// # Plan strings
///
/// [`FaultPlan::parse`] accepts the `repro fuzz --faults` / `repro chaos
/// --faults` grammar: a comma-separated list of class labels, each with an
/// optional `:count` budget (default 1), optionally followed by a global
/// `@lo..hi` cycle window. `all` expands to every class with budget 1.
///
/// # Example
///
/// ```
/// use tyr_sim::fault::FaultPlan;
/// use tyr_stats::FaultKind;
///
/// let plan = FaultPlan::parse("drop,corrupt:2@100..5000", 42).unwrap();
/// assert_eq!(plan.seed, 42);
/// assert_eq!(plan.window, (100, 5000));
/// assert_eq!(plan.specs.len(), 2);
/// assert_eq!(plan.specs[1].kind, FaultKind::TokenCorrupt);
/// assert_eq!(plan.specs[1].count, 2);
///
/// let all = FaultPlan::parse("all", 7).unwrap();
/// assert_eq!(all.specs.len(), FaultKind::ALL.len());
/// assert!(FaultPlan::parse("frobnicate", 0).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the PRNG that picks strike sites.
    pub seed: u64,
    /// Injection window `[start, end)` in cycles.
    pub window: (u64, u64),
    /// Per-class budgets.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no classes armed) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, window: (0, u64::MAX), specs: Vec::new() }
    }

    /// Arms `count` injections of `kind` (builder-style).
    pub fn with(mut self, kind: FaultKind, count: u32) -> Self {
        self.specs.push(FaultSpec { kind, count });
        self
    }

    /// Restricts injection to cycles in `[lo, hi)` (builder-style).
    pub fn between(mut self, lo: u64, hi: u64) -> Self {
        self.window = (lo, hi);
        self
    }

    /// A plan injecting a single fault of `kind`.
    pub fn single(seed: u64, kind: FaultKind) -> Self {
        FaultPlan::new(seed).with(kind, 1)
    }

    /// Parses a plan string (see the type-level docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token on an unknown class
    /// label, a malformed count, or a malformed window.
    pub fn parse(text: &str, seed: u64) -> Result<Self, String> {
        let (classes, window) = match text.split_once('@') {
            Some((c, w)) => {
                let (lo, hi) = w
                    .split_once("..")
                    .ok_or_else(|| format!("bad fault window '{w}' (want lo..hi)"))?;
                let lo = lo.parse::<u64>().map_err(|_| format!("bad window start '{lo}'"))?;
                let hi = hi.parse::<u64>().map_err(|_| format!("bad window end '{hi}'"))?;
                (c, (lo, hi))
            }
            None => (text, (0, u64::MAX)),
        };
        let mut plan = FaultPlan { seed, window, specs: Vec::new() };
        for item in classes.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (label, count) = match item.split_once(':') {
                Some((l, c)) => {
                    (l, c.parse::<u32>().map_err(|_| format!("bad fault count '{c}'"))?)
                }
                None => (item, 1),
            };
            if label == "all" {
                for kind in FaultKind::ALL {
                    plan.specs.push(FaultSpec { kind, count });
                }
                continue;
            }
            let kind =
                FaultKind::ALL.into_iter().find(|k| k.label() == label).ok_or_else(|| {
                    let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
                    format!("unknown fault class '{label}' (known: {})", known.join(" "))
                })?;
            plan.specs.push(FaultSpec { kind, count });
        }
        Ok(plan)
    }
}

/// Strike one candidate site in eight, so faults land mid-run rather than
/// always on the first opportunity.
const STRIKE_GATE_MASK: u64 = 0x7;

/// Live injection state inside a running engine. Engines build one from the
/// configured plan and consult it at each candidate site; with no plan the
/// engine holds `None` and each site costs a single `Option` test.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Remaining budget per class, indexed by [`FaultKind::index`].
    remaining: [u32; FaultKind::ALL.len()],
    window: (u64, u64),
    rng: u64,
    log: Vec<FaultRecord>,
    /// The stuck node, once a `NodeStick` fault has chosen its victim. A
    /// stuck node never fires again — pair stick faults with a watchdog.
    stuck: Option<u32>,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let mut remaining = [0u32; FaultKind::ALL.len()];
        for spec in &plan.specs {
            remaining[spec.kind.index()] = remaining[spec.kind.index()].saturating_add(spec.count);
        }
        FaultState {
            remaining,
            window: plan.window,
            // SplitMix64 state (mirrors tyr-workloads' generator); seed 0 is
            // fine — the increment keeps the stream non-degenerate.
            rng: plan.seed,
            log: Vec::new(),
            stuck: None,
        }
    }

    /// SplitMix64 step (Steele et al.; same constants as `tyr-workloads`).
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Decides whether a fault of `kind` strikes this candidate site,
    /// consuming one unit of budget if so.
    pub(crate) fn strike(&mut self, cycle: u64, kind: FaultKind) -> bool {
        if self.remaining[kind.index()] == 0 || cycle < self.window.0 || cycle >= self.window.1 {
            return false;
        }
        if self.next_u64() & STRIKE_GATE_MASK != 0 {
            return false;
        }
        self.remaining[kind.index()] -= 1;
        true
    }

    /// Whether `node` is (or just became) the stuck victim. The first
    /// candidate that wins the strike roll is stuck for the rest of the run;
    /// latching it is logged as a [`FaultKind::NodeStick`] injection.
    pub(crate) fn stick<P: Probe>(
        &mut self,
        probe: &mut P,
        cycle: u64,
        node: u32,
        label: &str,
    ) -> bool {
        if self.stuck == Some(node) {
            return true;
        }
        if self.stuck.is_some() || !self.strike(cycle, FaultKind::NodeStick) {
            return false;
        }
        self.stuck = Some(node);
        let detail = format!("node '{label}' wedged; it never fires again");
        self.inject(probe, cycle, node, FaultKind::NodeStick, detail);
        true
    }

    /// Whether `kind` still has injection budget. Event-driven engines use
    /// this to decide whether a per-cycle candidate site could still draw
    /// from the PRNG: once the budget is spent, [`FaultState::strike`]
    /// returns without a draw, so idle cycles are safe to skip.
    pub(crate) fn arms(&self, kind: FaultKind) -> bool {
        self.remaining[kind.index()] > 0
    }

    /// The plan's injection window `[lo, hi)`. Outside it,
    /// [`FaultState::strike`] returns without drawing from the PRNG.
    pub(crate) fn window(&self) -> (u64, u64) {
        self.window
    }

    /// Logs an applied fault and mirrors it into the probe stream: exactly
    /// one [`FaultRecord`] and one `FaultInjected` event per injection, which
    /// is what keeps [`RunResult::faults`](crate::RunResult) and the event
    /// count in step.
    pub(crate) fn inject<P: Probe>(
        &mut self,
        probe: &mut P,
        cycle: u64,
        node: u32,
        kind: FaultKind,
        detail: String,
    ) {
        self.log.push(FaultRecord { cycle, node, kind, detail });
        if P::ENABLED {
            probe.event(cycle, ProbeEvent::FaultInjected { node, kind });
        }
    }

    /// Applies the memory-response faults to the response of `node` (named
    /// `label`): a bit flip of `val` — load responses only; a store's
    /// completion token carries no data, so flipping it would perturb
    /// nothing — then a delay. Returns the extra delay in cycles (0 if the
    /// delay fault did not strike).
    pub(crate) fn perturb_mem_response<P: Probe>(
        &mut self,
        probe: &mut P,
        cycle: u64,
        node: u32,
        label: &str,
        is_load: bool,
        val: &mut Value,
    ) -> u64 {
        if is_load && self.strike(cycle, FaultKind::MemFlip) {
            let before = *val;
            *val ^= self.mask();
            let detail = format!("flipped load response at '{label}': {before} -> {val}");
            self.inject(probe, cycle, node, FaultKind::MemFlip, detail);
        }
        if !self.strike(cycle, FaultKind::MemDelay) {
            return 0;
        }
        let extra = self.extra_delay();
        let detail = format!("delayed memory response at '{label}' by {extra} extra cycle(s)");
        self.inject(probe, cycle, node, FaultKind::MemDelay, detail);
        extra
    }

    /// A nonzero corruption mask.
    pub(crate) fn mask(&mut self) -> i64 {
        (self.next_u64() | 1) as i64
    }

    /// Extra cycles of memory-response delay, in `1..=64`.
    pub(crate) fn extra_delay(&mut self) -> u64 {
        1 + (self.next_u64() & 0x3F)
    }

    pub(crate) fn into_log(self) -> Vec<FaultRecord> {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_stats::probe::NoProbe;

    #[test]
    fn parse_accepts_counts_and_window() {
        let plan = FaultPlan::parse("drop:3,stick@10..20", 1).unwrap();
        assert_eq!(plan.window, (10, 20));
        assert_eq!(
            plan.specs,
            vec![
                FaultSpec { kind: FaultKind::TokenDrop, count: 3 },
                FaultSpec { kind: FaultKind::NodeStick, count: 1 },
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop:x", 0).is_err());
        assert!(FaultPlan::parse("drop@5", 0).is_err());
        assert!(FaultPlan::parse("nope", 0).is_err());
    }

    #[test]
    fn strikes_respect_budget_and_window() {
        let plan = FaultPlan::new(9).with(FaultKind::TokenDrop, 2).between(100, 200);
        let mut state = FaultState::new(&plan);
        assert!(!state.strike(50, FaultKind::TokenDrop), "before the window");
        assert!(!state.strike(200, FaultKind::TokenDrop), "after the window");
        assert!(!state.strike(150, FaultKind::TokenDup), "class not armed");
        let mut hits = 0;
        for _ in 0..10_000 {
            if state.strike(150, FaultKind::TokenDrop) {
                hits += 1;
            }
        }
        assert_eq!(hits, 2, "budget caps injections");
    }

    #[test]
    fn strikes_are_deterministic_per_seed() {
        let plan = FaultPlan::new(7).with(FaultKind::TokenCorrupt, 4);
        let roll = |plan: &FaultPlan| {
            let mut s = FaultState::new(plan);
            (0..200).map(|c| s.strike(c, FaultKind::TokenCorrupt)).collect::<Vec<bool>>()
        };
        assert_eq!(roll(&plan), roll(&plan));
        let other = FaultPlan::new(8).with(FaultKind::TokenCorrupt, 4);
        assert_ne!(roll(&plan), roll(&other), "different seed, different sites");
    }

    #[test]
    fn stick_latches_one_victim() {
        let plan = FaultPlan::new(3).with(FaultKind::NodeStick, 1);
        let mut state = FaultState::new(&plan);
        let mut victim = None;
        for cycle in 0..1000 {
            for node in [4u32, 9] {
                if state.stick(&mut NoProbe, cycle, node, "n") {
                    victim.get_or_insert(node);
                    assert_eq!(victim, Some(node), "stuck victim never changes");
                }
            }
        }
        assert!(victim.is_some(), "a victim was chosen");
    }

    #[test]
    fn mask_is_never_zero() {
        let mut state = FaultState::new(&FaultPlan::new(0).with(FaultKind::TokenCorrupt, 1));
        for _ in 0..100 {
            assert_ne!(state.mask(), 0);
            let d = state.extra_delay();
            assert!((1..=64).contains(&d));
        }
    }
}
