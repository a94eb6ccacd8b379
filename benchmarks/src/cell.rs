//! Cells — the benchmark's operations — and the digest each run of a cell
//! must reproduce.
//!
//! One cell is one kernel × system × configuration (or one generated
//! program through the whole pipeline). Every pass runs every cell; a cell
//! fails when its run errors or panics, its output disagrees with the
//! oracle, its outcome class is not the expected one, or its digest differs
//! from the digest the same cell produced in an earlier pass.

use std::fmt;

use tyr_ir::MemoryImage;
use tyr_sim::{Outcome, RunResult};

/// How a cell's run is expected to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The program runs to completion (and the oracle check passes).
    Complete,
    /// The machine must deadlock — the bounded-global-pool cells of
    /// `tag_sweep` reproduce the paper's Fig. 11 failure.
    Deadlock,
}

/// Which simulator engine a cell spends its time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// `tyr_sim::tagged` (TYR and naïve unordered).
    Tagged,
    /// `tyr_sim::ordered`.
    Ordered,
    /// `tyr_sim::seqdf`.
    SeqDf,
    /// `tyr_sim::seqvn`.
    SeqVn,
    /// `tyr_sim::ooo` (traced pass only; not a `System`).
    Ooo,
}

impl Engine {
    /// Every engine, in reporting order.
    pub const ALL: [Engine; 5] =
        [Engine::Tagged, Engine::Ordered, Engine::SeqDf, Engine::SeqVn, Engine::Ooo];

    /// The module name used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tagged => "tagged",
            Engine::Ordered => "ordered",
            Engine::SeqDf => "seqdf",
            Engine::SeqVn => "seqvn",
            Engine::Ooo => "ooo",
        }
    }
}

/// Static description of one cell.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Name printed when the cell fails, e.g. `dmv/TYR` or `recipe-10042`.
    pub id: String,
    /// Operations this cell stands for (5 for a generated program run on
    /// five systems, 1 otherwise).
    pub ops: u64,
    /// Expected outcome class.
    pub expect: Expect,
    /// `System::label()` of the simulated system (`"TYR"`, `"ordered"`, …)
    /// or `"all"` for a cell that runs every system; groups the cache
    /// statistics and selects the cells behind `tyr_cycles`.
    pub system: &'static str,
}

/// [`CellSpec::system`] of the TYR cells.
pub const TYR: &str = "TYR";

impl CellSpec {
    /// A one-operation cell expected to complete.
    pub fn new(id: impl Into<String>, system: &'static str) -> Self {
        CellSpec { id: id.into(), ops: 1, expect: Expect::Complete, system }
    }
}

/// Every simulated statistic of one cell run. Two runs of the same cell
/// must produce equal digests, whatever the host did in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Whether the run deadlocked (`false`: completed).
    pub deadlocked: bool,
    /// `final_cycle`: simulated time.
    pub cycles: u64,
    /// The part of `cycles` simulated on the TYR system.
    pub tyr_cycles: u64,
    /// Dynamic instructions fired (0 for a deadlocked run).
    pub dyn_instrs: u64,
    /// Peak live tokens.
    pub peak_live: u64,
    /// Architectural loads.
    pub mem_loads: u64,
    /// Architectural stores.
    pub mem_stores: u64,
    /// L1 hits (0 under ideal memory).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Misses delayed by a full MSHR table.
    pub mshr_stalls: u64,
    /// Cycles the event-driven core jumped instead of ticking.
    pub skipped_cycles: u64,
    /// Largest single block-store occupancy (tagged engine).
    pub store_peak: u64,
    /// FNV-1a over every array of the final memory image.
    pub out_fnv: u64,
}

impl Digest {
    /// The digest of a finished run on `system` (a [`CellSpec::system`]
    /// label).
    ///
    /// # Errors
    ///
    /// A run the watchdog ended has no stable digest and is an error.
    pub fn of(r: &RunResult, system: &str) -> Result<Digest, String> {
        let deadlocked = match r.outcome {
            Outcome::Completed { .. } => false,
            Outcome::Deadlock { .. } => true,
            Outcome::TimedOut { .. } => return Err(format!("{}", r.outcome)),
        };
        let mem = r.mem_stats.unwrap_or_default();
        Ok(Digest {
            deadlocked,
            cycles: r.final_cycle(),
            tyr_cycles: if system == TYR { r.final_cycle() } else { 0 },
            dyn_instrs: r.dyn_instrs(),
            peak_live: r.peak_live(),
            mem_loads: r.mem_loads,
            mem_stores: r.mem_stores,
            l1_hits: mem.l1.hits,
            l1_misses: mem.l1.misses,
            l2_hits: mem.l2.hits,
            l2_misses: mem.l2.misses,
            mshr_stalls: mem.mshr_stalls,
            skipped_cycles: r.skipped_cycles,
            store_peak: r.max_store_peak(),
            out_fnv: fnv_memory(r.memory()),
        })
    }

    /// Adds `other`'s counts to `self` (for cells that run several engines)
    /// and chains its output hash.
    pub fn absorb(&mut self, other: &Digest) {
        self.deadlocked |= other.deadlocked;
        self.cycles += other.cycles;
        self.tyr_cycles += other.tyr_cycles;
        self.dyn_instrs += other.dyn_instrs;
        self.peak_live += other.peak_live;
        self.mem_loads += other.mem_loads;
        self.mem_stores += other.mem_stores;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.mshr_stalls += other.mshr_stalls;
        self.skipped_cycles += other.skipped_cycles;
        self.store_peak = self.store_peak.max(other.store_peak);
        self.out_fnv = fnv_words(self.out_fnv, &[other.out_fnv as i64]);
    }

    /// Checks the outcome class against the expectation.
    ///
    /// # Errors
    ///
    /// Names the mismatch.
    pub fn expect(&self, expect: Expect) -> Result<(), String> {
        match (expect, self.deadlocked) {
            (Expect::Complete, false) | (Expect::Deadlock, true) => Ok(()),
            (Expect::Complete, true) => Err(format!("deadlocked at cycle {}", self.cycles)),
            (Expect::Deadlock, false) => {
                Err(format!("completed in {} cycles but must deadlock", self.cycles))
            }
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} instrs={} peak_live={} ld/st={}/{} l1={}/{} l2={}/{} mshr={} skipped={} \
             store_peak={} out={:016x}{}",
            self.cycles,
            self.dyn_instrs,
            self.peak_live,
            self.mem_loads,
            self.mem_stores,
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.mshr_stalls,
            self.skipped_cycles,
            self.store_peak,
            self.out_fnv,
            if self.deadlocked { " DEADLOCK" } else { "" }
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `words`, continuing from `state`.
pub fn fnv_words(state: u64, words: &[i64]) -> u64 {
    words.iter().fold(state, |h, w| (h ^ *w as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over every named array of a memory image, in allocation order.
pub fn fnv_memory(mem: &MemoryImage) -> u64 {
    mem.arrays().fold(FNV_OFFSET, |h, (_, array)| fnv_words(h, mem.slice(array)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_sees_every_word() {
        let mut a = MemoryImage::new();
        let out = a.alloc("out", 4);
        let mut b = a.clone();
        assert_eq!(fnv_memory(&a), fnv_memory(&b));
        b.slice_mut(out)[3] = 1;
        assert_ne!(fnv_memory(&a), fnv_memory(&b));
        a.slice_mut(out)[3] = 1;
        assert_eq!(fnv_memory(&a), fnv_memory(&b));
    }

    #[test]
    fn expectation_table_rejects_the_wrong_outcome_class() {
        let done = Digest { cycles: 10, ..Digest::default() };
        let dead = Digest { deadlocked: true, cycles: 10, ..Digest::default() };
        assert!(done.expect(Expect::Complete).is_ok());
        assert!(dead.expect(Expect::Deadlock).is_ok());
        assert!(done.expect(Expect::Deadlock).unwrap_err().contains("must deadlock"));
        assert!(dead.expect(Expect::Complete).unwrap_err().contains("deadlocked"));
    }
}
