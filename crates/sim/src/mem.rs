//! The engines' memory port: the one place an architectural access meets
//! the memory model.
//!
//! Every engine owns exactly one [`MemPort`]. It counts loads and stores,
//! mirrors them into the probe stream (`MemAccess`, and `MemMiss` on an L1
//! miss), prices each access against [`MemConfig`], and hands the counters
//! and cache statistics to the run result — so all five systems see the
//! same hierarchy by construction. The cache shapes *when* a result
//! arrives, never *what* it is; values come from the engine's
//! `MemoryImage`.

use tyr_ir::Value;
use tyr_stats::probe::{Probe, ProbeEvent};

use crate::cache::{CacheSim, HitLevel, MemConfig, MemStats};

/// Memory-model state for one run. Holds no heap allocation under ideal
/// memory.
#[derive(Debug)]
pub(crate) struct MemPort {
    /// Cache-hierarchy state (`None` under ideal memory).
    cache: Option<CacheSim>,
    /// Latency of every access under ideal memory.
    ideal_latency: u64,
    /// Architectural loads / stores executed (counted even without a probe).
    loads: u64,
    stores: u64,
}

impl MemPort {
    /// The port of a dataflow engine: ideal memory answers after its
    /// configured latency.
    pub(crate) fn new(mem: &MemConfig) -> Self {
        MemPort { cache: mem.build(), ideal_latency: mem.ideal_latency(), loads: 0, stores: 0 }
    }

    /// The port of a program-order engine (vN, OoO, sequential dataflow):
    /// ideal memory completes within the instruction's own cycle whatever
    /// latency is configured, so only a cached model costs these machines
    /// anything.
    pub(crate) fn free_when_ideal(mem: &MemConfig) -> Self {
        MemPort { ideal_latency: 1, ..MemPort::new(mem) }
    }

    /// Whether a cache hierarchy is being simulated.
    pub(crate) fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// Counts one architectural access and emits its `MemAccess` event,
    /// stamped `at`. Separate from [`MemPort::lookup`] because the OoO
    /// engine learns of an access before it knows the issue cycle.
    pub(crate) fn count<P: Probe>(
        &mut self,
        probe: &mut P,
        at: u64,
        node: u32,
        addr: Value,
        write: bool,
    ) {
        if write {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
        if P::ENABLED {
            probe.event(at, ProbeEvent::MemAccess { node, addr, write });
        }
    }

    /// Prices one access issued at cycle `at` and returns its latency in
    /// cycles, emitting a `MemMiss` event on an L1 miss.
    pub(crate) fn lookup<P: Probe>(
        &mut self,
        probe: &mut P,
        at: u64,
        node: u32,
        addr: Value,
        write: bool,
    ) -> u64 {
        let Some(cache) = self.cache.as_mut() else { return self.ideal_latency };
        let acc = cache.access(at, addr, write);
        if P::ENABLED && acc.is_miss() {
            probe.event(at, ProbeEvent::MemMiss { node, addr, l2: acc.level == HitLevel::Mem });
        }
        acc.complete - at
    }

    /// [`MemPort::count`] then [`MemPort::lookup`], both at cycle `at`.
    pub(crate) fn access<P: Probe>(
        &mut self,
        probe: &mut P,
        at: u64,
        node: u32,
        addr: Value,
        write: bool,
    ) -> u64 {
        self.count(probe, at, node, addr, write);
        self.lookup(probe, at, node, addr, write)
    }

    /// The earliest outstanding MSHR fill strictly after `cycle`
    /// (`u64::MAX` when none): an event-driven jump must not leap past it,
    /// because the fill frees an MSHR entry and so releases back-pressure.
    pub(crate) fn next_fill(&mut self, cycle: u64) -> u64 {
        self.cache.as_mut().and_then(|c| c.next_fill(cycle)).unwrap_or(u64::MAX)
    }

    /// `(loads, stores)` executed so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.loads, self.stores)
    }

    /// Cache-hierarchy counters (`None` under ideal memory).
    pub(crate) fn stats(&self) -> Option<MemStats> {
        self.cache.as_ref().map(CacheSim::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use tyr_stats::probe::CountingProbe;

    #[test]
    fn ideal_port_charges_the_configured_latency_and_counts() {
        let mut probe = CountingProbe::default();
        let mut port = MemPort::new(&MemConfig::ideal(200));
        assert!(!port.is_cached());
        assert_eq!(port.access(&mut probe, 5, 0, 64, false), 200);
        assert_eq!(port.access(&mut probe, 6, 0, 64, true), 200);
        assert_eq!(port.counts(), (1, 1));
        assert_eq!(port.next_fill(0), u64::MAX);
        assert!(port.stats().is_none());
        assert_eq!(probe.events, 2, "one MemAccess per access, never a MemMiss");
        assert_eq!(
            MemPort::free_when_ideal(&MemConfig::ideal(200)).lookup(&mut probe, 0, 0, 0, false),
            1
        );
    }

    #[test]
    fn cached_port_reports_misses_and_fills() {
        let mut probe = CountingProbe::default();
        let cfg = CacheConfig::default();
        let miss = cfg.l1_lat + cfg.l2_lat + cfg.mem_lat;
        let hit = cfg.l1_lat;
        let mut port = MemPort::free_when_ideal(&MemConfig::Cached(cfg));
        assert_eq!(port.access(&mut probe, 10, 0, 0, false), miss);
        assert_eq!(port.next_fill(10), 10 + miss);
        assert_eq!(port.access(&mut probe, 11, 0, 0, false), hit);
        assert_eq!(probe.events, 3, "two MemAccess + one MemMiss");
        let stats = port.stats().expect("cached");
        assert_eq!((stats.l1.hits, stats.l1.misses), (1, 1));
    }
}
