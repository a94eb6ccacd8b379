//! Micro-component measurements, folded in from the repository's
//! `benches/store.rs` pairs and the event-queue and cache replays so there
//! is one perf record: the tagged engine's token-store structures
//! (`ValueSlab`, `FxHashMap`), and the event queue and `CacheSim::access`
//! replaying the memory traffic of `dmv` on TYR, recorded under the memory
//! model each measurement is about. Median of nine repeats. Each group is
//! measured once, in the suite workload it is predicted to move.

use std::hint::black_box;

use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
use tyr_ir::Value;
use tyr_sim::fxhash::FxHashMap;
use tyr_sim::slab::ValueSlab;
use tyr_sim::tagged::{TaggedConfig, TaggedEngine};
use tyr_sim::{CacheConfig, CacheSim, EventQueue, MemConfig, Probe, ProbeEvent};

use crate::harness::Layers;
use crate::host;

const REPEATS: usize = 9;

/// Ports per token set (a typical wired-input count).
const PORTS: usize = 3;
/// Tags alive at once during churn (a realistic unordered working set).
const LIVE: u64 = 512;
/// Tag lifetimes per measurement.
const TURNOVER: u64 = 200_000;
/// The fixed memory latency `suite_lat200` runs under.
const FIXED_LATENCY: u64 = 200;

/// Median over [`REPEATS`] runs of `f`, in ns per `ops` operations.
fn median_ns_per_op<R>(ops: u64, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (out, secs) = host::timed(&mut f);
            black_box(out);
            secs * 1e9 / ops as f64
        })
        .collect();
    host::median(&samples)
}

/// Token-set turnover through the pooled slab: acquire a row, set every
/// port, and once [`LIVE`] rows are out, read and release the oldest.
fn slab_turnover() -> Value {
    let mut slab = ValueSlab::new(PORTS);
    let mut live: Vec<u32> = Vec::new();
    let mut sum: Value = 0;
    for tag in 0..TURNOVER {
        let row = slab.acquire();
        for port in 0..PORTS {
            slab.set(row, port as u16, tag as Value + port as Value);
        }
        live.push(row);
        if live.len() > LIVE as usize {
            let row = live.swap_remove(0);
            for port in 0..PORTS {
                sum = sum.wrapping_add(slab.get(row, port as u16));
            }
            slab.release(row);
        }
    }
    sum
}

/// The sparse store's life cycle for one tag under FxHash: first token
/// inserts the slot, later tokens set more ports, the match reads every
/// port, consumption removes the slot. Tags are monotonically increasing,
/// as the engine's are.
fn fxhash_churn() -> Value {
    let mut map: FxHashMap<u64, (u64, [Value; PORTS])> = FxHashMap::default();
    let mut sum: Value = 0;
    for tag in 0..TURNOVER {
        let slot = map.entry(tag).or_insert((0, [0; PORTS]));
        for port in 0..PORTS {
            slot.0 |= 1 << port;
            slot.1[port] = tag as Value + port as Value;
        }
        if tag >= LIVE {
            if let Some((present, vals)) = map.remove(&(tag - LIVE)) {
                black_box(present);
                for v in vals {
                    sum = sum.wrapping_add(v);
                }
            }
        }
    }
    sum
}

/// Replays `traffic` — `(issue cycle, release cycle)` per memory response,
/// in issue order — through `queue` the way the event-driven engines use
/// it: push at the issue cycle, drain what is due, then jump the clock to
/// the next issue or delivery.
fn replay_events(mut queue: EventQueue<u64>, traffic: &[(u64, u64)]) -> u64 {
    let mut out = Vec::new();
    let (mut next, mut delivered, mut cycle) = (0usize, 0usize, 0u64);
    while delivered < traffic.len() {
        while traffic.get(next).is_some_and(|&(issue, _)| issue <= cycle) {
            queue.push(traffic[next].1, next as u64);
            next += 1;
        }
        queue.drain_due(cycle, &mut out);
        delivered += out.len();
        out.clear();
        let delivery = queue.next_release(cycle).map(|release| release.saturating_sub(1));
        let issue = traffic.get(next).map(|&(issue, _)| issue);
        cycle = delivery.into_iter().chain(issue).min().unwrap_or(cycle).max(cycle + 1);
    }
    cycle
}

/// Records every memory access of a run as `(cycle, address, write)`.
#[derive(Default)]
struct AccessRecorder(Vec<(u64, Value, bool)>);

impl Probe for AccessRecorder {
    fn event(&mut self, cycle: u64, ev: ProbeEvent) {
        if let ProbeEvent::MemAccess { addr, write, .. } = ev {
            self.0.push((cycle, addr, write));
        }
    }
}

/// The access stream of `dmv` on TYR at the default 64 tags under `mem`.
fn record_dmv_accesses(mem: MemConfig) -> Vec<(u64, Value, bool)> {
    let w = tyr_workloads::dmv::build(96, 96, 1);
    let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).expect("dmv lowers");
    let cfg = TaggedConfig { args: w.args.clone(), mem, ..TaggedConfig::default() };
    let mut recorder = AccessRecorder::default();
    TaggedEngine::with_probe(&dfg, w.memory.clone(), cfg, &mut recorder)
        .run()
        .expect("dmv runs on TYR");
    recorder.0
}

/// `sim.slab.*`, `sim.fxhash.*`: the token-store structures `suite_ideal`
/// spends its time in.
pub fn measure_store(layers: &mut Layers) {
    layers.set("sim.slab.turnover_ns", median_ns_per_op(TURNOVER, slab_turnover));
    layers.set("sim.fxhash.churn_ns", median_ns_per_op(TURNOVER, fxhash_churn));
}

/// `sim.event.push_drain_ns`: the timing wheel under `suite_lat200`'s
/// traffic — `dmv`'s accesses as issued at `ideal:200`, each released
/// [`FIXED_LATENCY`] cycles later.
pub fn measure_fixed_latency(layers: &mut Layers) {
    let traffic: Vec<(u64, u64)> = record_dmv_accesses(MemConfig::ideal(FIXED_LATENCY))
        .iter()
        .map(|&(cycle, _, _)| (cycle, cycle + FIXED_LATENCY))
        .collect();
    layers.set(
        "sim.event.push_drain_ns",
        median_ns_per_op(traffic.len().max(1) as u64, || {
            replay_events(EventQueue::new(FIXED_LATENCY), &traffic)
        }),
    );
}

/// `(issue cycle, completion cycle)` of each of `accesses` as `CacheSim`
/// computes it. For a stream recorded under `cache` the engine presented
/// exactly this `(cycle, address)` sequence to its own `CacheSim`, so these
/// are the latencies its run saw.
fn cached_traffic(cache: &CacheConfig, accesses: &[(u64, Value, bool)]) -> Vec<(u64, u64)> {
    let mut sim = CacheSim::new(cache.clone());
    accesses
        .iter()
        .map(|&(cycle, addr, write)| (cycle, sim.access(cycle, addr, write).complete))
        .collect()
}

/// `sim.cache.access_ns`, `sim.event.push_drain_var_ns`: `CacheSim::access`
/// and the release-ordered queue under `suite_cached`'s traffic. The default
/// geometry is the figure-locality one (4 KiB / 64 KiB / 8 MSHRs) that
/// workload runs under.
pub fn measure_cached(layers: &mut Layers) {
    let cache = CacheConfig::default();
    let accesses = record_dmv_accesses(MemConfig::Cached(cache.clone()));
    let traffic = cached_traffic(&cache, &accesses);
    let ops = accesses.len().max(1) as u64;
    layers.set(
        "sim.cache.access_ns",
        median_ns_per_op(ops, || {
            let mut sim = CacheSim::new(cache.clone());
            let mut last = 0;
            for &(cycle, addr, write) in &accesses {
                last = sim.access(cycle, addr, write).complete;
            }
            last
        }),
    );
    layers.set(
        "sim.event.push_drain_var_ns",
        median_ns_per_op(ops, || replay_events(EventQueue::sorted(), &traffic)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_delivers_every_event_and_jumps_idle_cycles() {
        // Two bursts 1000 cycles apart, released 200 cycles after issue.
        let traffic: Vec<(u64, u64)> =
            [0, 0, 1, 1000, 1001].iter().map(|&c| (c, c + FIXED_LATENCY)).collect();
        let end = replay_events(EventQueue::new(FIXED_LATENCY), &traffic);
        assert_eq!(end, 1001 + FIXED_LATENCY);
        assert_eq!(replay_events(EventQueue::sorted(), &traffic), end);
    }

    #[test]
    fn cached_traffic_carries_the_models_own_latencies() {
        let cache = CacheConfig::default();
        let accesses = record_dmv_accesses(MemConfig::Cached(cache.clone()));
        let traffic = cached_traffic(&cache, &accesses);
        assert_eq!(accesses.len(), traffic.len());
        assert!(traffic.windows(2).all(|w| w[0].0 <= w[1].0), "issue order");
        let hit = cache.l1_lat;
        let miss = cache.l1_lat + cache.l2_lat + cache.mem_lat;
        let share = |lat: u64| {
            traffic.iter().filter(|&&(c, r)| r - c == lat).count() as f64 / traffic.len() as f64
        };
        // Hits and DRAM misses both occur; neither is the invented 70/10 mix.
        assert!(share(hit) > 0.3 && share(miss) > 0.01, "{} {}", share(hit), share(miss));
        assert!(traffic.iter().all(|&(c, r)| r - c >= hit));
    }
}
