//! Two-level cache-hierarchy memory model (ROADMAP item 4).
//!
//! Every engine issues architectural memory accesses through the same
//! request path; this module puts a configurable L1/L2 cache with an MSHR
//! table behind that path so the paper's headline claim — *taming
//! parallelism improves locality* — becomes measurable in cycles instead of
//! only in the static W-pass bounds. The model is deliberately simple and
//! deterministic:
//!
//! * **Geometry.** Two set-associative levels with LRU replacement and a
//!   shared line size. Addresses are word indices (one [`Value`] = 8
//!   bytes), so a 64-byte line holds 8 words — the same granularity the
//!   W-pass ([`tyr-verify`]'s W002 footprint bound) and the dynamic
//!   [`WorkingSet`](tyr_stats::locality::WorkingSet) tracker use.
//! * **Latencies.** An L1 hit completes after `l1_lat` cycles, an L2 hit
//!   after `l1_lat + l2_lat`, and a DRAM access after
//!   `l1_lat + l2_lat + mem_lat`. Both levels fill on a miss
//!   (write-allocate; stores probe and fill exactly like loads).
//! * **MSHRs.** A bounded table of outstanding L1 misses. A miss that finds
//!   the table full back-pressures: it cannot start until the earliest
//!   outstanding fill completes, which pushes its own completion later and
//!   counts one `mshr_stall`. Hits never occupy an MSHR.
//!
//! The cache decides *when* a memory result is available, never *what* it
//! is: values are read/written architecturally at issue time, so cached and
//! ideal runs produce identical memory images and return values (the
//! differential fuzzer's `--mem cached` sweep pins this). The variable
//! completion cycles ride the engines' existing
//! [`EventQueue`](crate::event::EventQueue) miss path (the release-ordered
//! calendar ring of [`EventQueue::sorted`](crate::event::EventQueue::sorted),
//! which lets a hit overtake an earlier miss), so the event-driven idle-skip
//! keeps working; the jump clamp includes [`CacheSim::next_fill`], the
//! earliest outstanding MSHR fill.
//!
//! [`tyr-verify`]: ../../tyr_verify/index.html

use tyr_ir::Value;

/// Memory-model selection threaded through every engine configuration.
///
/// # Grammar
///
/// [`MemConfig::parse`] accepts the `repro --mem` surface syntax:
///
/// ```
/// use tyr_sim::cache::MemConfig;
///
/// // The idealized fixed-latency store (the default, latency 1):
/// assert_eq!(MemConfig::parse("ideal").unwrap(), MemConfig::ideal(1));
/// assert_eq!(MemConfig::parse("ideal:200").unwrap(), MemConfig::ideal(200));
///
/// // The cache hierarchy; every key is optional (defaults shown by label):
/// let m = MemConfig::parse("cached:l1=4k,l2=64k,mshr=8").unwrap();
/// assert_eq!(m.label(), "cached:l1=4096,l2=65536,line=64,assoc=4/8,lat=2/12/100,mshr=8");
/// let deep = MemConfig::parse("cached:l1=1k,lat2=20,mem=300,assoc1=2").unwrap();
/// assert!(m.is_cached() && deep.is_cached());
/// assert!(MemConfig::parse("cached:l1=zzz").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemConfig {
    /// Fixed-latency memory: every access completes after `latency` cycles
    /// (the paper's idealized model). Latency 1 is the default and is
    /// bit-identical to the pre-cache engines.
    Ideal {
        /// Cycles from issue to completion for every access.
        latency: u64,
    },
    /// The two-level cache hierarchy described in [`CacheConfig`].
    Cached(CacheConfig),
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::ideal(1)
    }
}

impl MemConfig {
    /// Fixed-latency memory with the given latency.
    pub fn ideal(latency: u64) -> Self {
        MemConfig::Ideal { latency }
    }

    /// Whether this configuration models the cache hierarchy.
    pub fn is_cached(&self) -> bool {
        matches!(self, MemConfig::Cached(_))
    }

    /// The fixed latency for [`MemConfig::Ideal`]; 1 for cached mode (the
    /// engines take the per-access latency from [`CacheSim::access`]
    /// instead).
    pub fn ideal_latency(&self) -> u64 {
        match self {
            MemConfig::Ideal { latency } => *latency,
            MemConfig::Cached(_) => 1,
        }
    }

    /// Builds the simulator state for this configuration: `Some(CacheSim)`
    /// in cached mode, `None` for ideal memory.
    pub fn build(&self) -> Option<CacheSim> {
        match self {
            MemConfig::Ideal { .. } => None,
            MemConfig::Cached(c) => Some(CacheSim::new(c.clone())),
        }
    }

    /// Canonical one-token rendering, accepted back by [`MemConfig::parse`].
    pub fn label(&self) -> String {
        match self {
            MemConfig::Ideal { latency } => format!("ideal:{latency}"),
            MemConfig::Cached(c) => format!(
                "cached:l1={},l2={},line={},assoc={}/{},lat={}/{}/{},mshr={}",
                c.l1_bytes,
                c.l2_bytes,
                c.line_bytes,
                c.l1_assoc,
                c.l2_assoc,
                c.l1_lat,
                c.l2_lat,
                c.mem_lat,
                c.mshrs
            ),
        }
    }

    /// Parses the `--mem` grammar: `ideal`, `ideal:N`, or
    /// `cached[:key=value,...]` with keys `l1`, `l2` (capacities in bytes,
    /// `k`/`m` suffixes allowed), `line` (bytes), `assoc1`, `assoc2`,
    /// `lat1`, `lat2`, `mem` (latencies in cycles), and `mshr`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token on unknown modes, keys,
    /// or malformed numbers.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (mode, rest) = match s.split_once(':') {
            Some((m, r)) => (m, Some(r)),
            None => (s, None),
        };
        match mode {
            "ideal" => {
                let latency = match rest {
                    None | Some("") => 1,
                    Some(v) => v.parse().map_err(|_| format!("--mem ideal: bad latency '{v}'"))?,
                };
                Ok(MemConfig::Ideal { latency })
            }
            "cached" => {
                let mut c = CacheConfig::default();
                for kv in rest.unwrap_or("").split(',').filter(|t| !t.is_empty()) {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("--mem cached: expected key=value, got '{kv}'"))?;
                    match k {
                        "l1" => c.l1_bytes = parse_size(v)?,
                        "l2" => c.l2_bytes = parse_size(v)?,
                        "line" => c.line_bytes = parse_size(v)?,
                        "assoc1" => c.l1_assoc = parse_num(k, v)? as usize,
                        "assoc2" => c.l2_assoc = parse_num(k, v)? as usize,
                        "lat1" => c.l1_lat = parse_num(k, v)?,
                        "lat2" => c.l2_lat = parse_num(k, v)?,
                        "mem" => c.mem_lat = parse_num(k, v)?,
                        "mshr" => c.mshrs = parse_num(k, v)? as usize,
                        // Compound forms produced by `label()`.
                        "assoc" => {
                            let (a1, a2) = v.split_once('/').ok_or_else(|| {
                                format!("--mem cached: assoc wants 'a1/a2', got '{v}'")
                            })?;
                            c.l1_assoc = parse_num(k, a1)? as usize;
                            c.l2_assoc = parse_num(k, a2)? as usize;
                        }
                        "lat" => {
                            let mut it = v.splitn(3, '/');
                            let mut next = || {
                                it.next().ok_or_else(|| {
                                    format!("--mem cached: lat wants 'l1/l2/mem', got '{v}'")
                                })
                            };
                            c.l1_lat = parse_num(k, next()?)?;
                            c.l2_lat = parse_num(k, next()?)?;
                            c.mem_lat = parse_num(k, next()?)?;
                        }
                        other => {
                            return Err(format!(
                                "--mem cached: unknown key '{other}' (known: l1 l2 line \
                                 assoc1 assoc2 lat1 lat2 mem mshr assoc lat)"
                            ))
                        }
                    }
                }
                c.validate()?;
                Ok(MemConfig::Cached(c))
            }
            other => Err(format!("--mem: unknown mode '{other}' (known: ideal, cached)")),
        }
    }
}

/// Parses a capacity with an optional `k`/`m` suffix.
fn parse_size(v: &str) -> Result<u64, String> {
    let (digits, mult) = match v.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1024),
        None => match v.strip_suffix(['m', 'M']) {
            Some(d) => (d, 1024 * 1024),
            None => (v, 1),
        },
    };
    digits.parse::<u64>().map(|n| n * mult).map_err(|_| format!("--mem cached: bad size '{v}'"))
}

/// Parses a plain numeric value for key `k`.
fn parse_num(k: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("--mem cached: bad value '{v}' for '{k}'"))
}

/// Geometry and timing of the two-level hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 capacity in bytes (default 4 KiB).
    pub l1_bytes: u64,
    /// L2 capacity in bytes (default 64 KiB).
    pub l2_bytes: u64,
    /// Line size in bytes, shared by both levels (default 64 — 8 words).
    pub line_bytes: u64,
    /// L1 associativity (ways per set, default 4).
    pub l1_assoc: usize,
    /// L2 associativity (default 8).
    pub l2_assoc: usize,
    /// L1 hit latency in cycles (default 2).
    pub l1_lat: u64,
    /// Additional cycles for an L2 hit (default 12).
    pub l2_lat: u64,
    /// Additional cycles for a DRAM access (default 100).
    pub mem_lat: u64,
    /// Outstanding-miss (MSHR) table size; a full table back-pressures new
    /// misses (default 8).
    pub mshrs: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1_bytes: 4096,
            l2_bytes: 65536,
            line_bytes: 64,
            l1_assoc: 4,
            l2_assoc: 8,
            l1_lat: 2,
            l2_lat: 12,
            mem_lat: 100,
            mshrs: 8,
        }
    }
}

impl CacheConfig {
    /// Words per line (the address-bucketing granularity; addresses are
    /// word indices).
    pub fn line_words(&self) -> u64 {
        (self.line_bytes / 8).max(1)
    }

    /// Rejects degenerate geometries (zero sizes, a level smaller than one
    /// way set, or no MSHRs).
    fn validate(&self) -> Result<(), String> {
        let bad = |why: String| Err(format!("--mem cached: {why}"));
        if self.line_bytes == 0 {
            return bad("line size must be nonzero".into());
        }
        for (name, bytes, assoc) in
            [("l1", self.l1_bytes, self.l1_assoc), ("l2", self.l2_bytes, self.l2_assoc)]
        {
            if assoc == 0 {
                return bad(format!("{name} associativity must be nonzero"));
            }
            if bytes < self.line_bytes * assoc as u64 {
                return bad(format!(
                    "{name}={bytes} bytes holds less than one {assoc}-way set of \
                     {}-byte lines",
                    self.line_bytes
                ));
            }
        }
        if self.l1_lat == 0 {
            return bad("l1 hit latency must be at least 1".into());
        }
        if self.mshrs == 0 {
            return bad("mshr table must have at least one entry".into());
        }
        Ok(())
    }
}

/// Hit/miss/occupancy counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses served by this level.
    pub hits: u64,
    /// Accesses that missed this level.
    pub misses: u64,
    /// Lines currently resident.
    pub resident_lines: u64,
    /// Peak resident lines over the run.
    pub peak_lines: u64,
}

impl LevelStats {
    /// Misses over accesses (0.0 when the level was never probed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// End-of-run cache statistics attached to
/// [`RunResult`](crate::RunResult)`::mem_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// L1 counters. `l1.misses` equals the run's `MemMiss` probe-event
    /// count.
    pub l1: LevelStats,
    /// L2 counters (probed only on L1 misses).
    pub l2: LevelStats,
    /// Misses that found the MSHR table full and had to wait for an
    /// outstanding fill.
    pub mshr_stalls: u64,
}

/// Where an access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by L1.
    L1,
    /// Missed L1, served by L2.
    L2,
    /// Missed both levels; served by DRAM.
    Mem,
}

/// The outcome of one [`CacheSim::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the result is available (`> issue cycle`).
    pub complete: u64,
    /// Level that served the access.
    pub level: HitLevel,
    /// Whether a full MSHR table delayed the start of this miss.
    pub mshr_stall: bool,
}

impl Access {
    /// Whether the access missed L1 (and therefore emits a `MemMiss` probe
    /// event).
    pub fn is_miss(&self) -> bool {
        self.level != HitLevel::L1
    }
}

/// One set-associative LRU level. Each set is a small vector of line
/// indices ordered most-recently-used first; lookups and fills rotate the
/// touched line to the front and evict from the back.
#[derive(Debug)]
struct Level {
    /// `sets[s]` holds at most `assoc` line indices, MRU first.
    sets: Vec<Vec<i64>>,
    assoc: usize,
    stats: LevelStats,
}

impl Level {
    fn new(bytes: u64, line_bytes: u64, assoc: usize) -> Self {
        let lines = (bytes / line_bytes).max(assoc as u64);
        let n_sets = (lines / assoc as u64).max(1) as usize;
        Level { sets: vec![Vec::new(); n_sets], assoc, stats: LevelStats::default() }
    }

    fn set_of(&self, line: i64) -> usize {
        line.rem_euclid(self.sets.len() as i64) as usize
    }

    /// Probes for `line`; on a hit, promotes it to MRU.
    fn probe(&mut self, line: i64) -> bool {
        let s = self.set_of(line);
        let set = &mut self.sets[s];
        if let Some(p) = set.iter().position(|&l| l == line) {
            set[..=p].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Installs `line` as MRU, evicting the LRU way if the set is full.
    fn fill(&mut self, line: i64) {
        let s = self.set_of(line);
        let set = &mut self.sets[s];
        if set.len() >= self.assoc {
            set.pop();
            self.stats.resident_lines -= 1;
        }
        set.insert(0, line);
        self.stats.resident_lines += 1;
        self.stats.peak_lines = self.stats.peak_lines.max(self.stats.resident_lines);
    }
}

/// The two-level cache + MSHR simulator.
///
/// # Example
///
/// ```
/// use tyr_sim::cache::{CacheConfig, CacheSim, HitLevel};
///
/// let mut c = CacheSim::new(CacheConfig::default()); // lat 2/12/100
/// let cold = c.access(0, 64, false);
/// assert_eq!((cold.level, cold.complete), (HitLevel::Mem, 114));
/// // Same line, one word over: now L1-resident.
/// let warm = c.access(1, 65, true);
/// assert_eq!((warm.level, warm.complete), (HitLevel::L1, 3));
/// assert_eq!(c.stats().l1.misses, 1);
/// assert_eq!(c.stats().l1.hits, 1);
/// ```
#[derive(Debug)]
pub struct CacheSim {
    cfg: CacheConfig,
    l1: Level,
    l2: Level,
    /// Completion cycles of outstanding L1-miss fills, unordered.
    mshr: Vec<u64>,
    mshr_stalls: u64,
}

impl CacheSim {
    /// Builds an empty hierarchy for `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        let l1 = Level::new(cfg.l1_bytes, cfg.line_bytes, cfg.l1_assoc);
        let l2 = Level::new(cfg.l2_bytes, cfg.line_bytes, cfg.l2_assoc);
        CacheSim { cfg, l1, l2, mshr: Vec::new(), mshr_stalls: 0 }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Simulates one access at `cycle` and returns when it completes and
    /// which level served it. Loads and stores are modeled identically
    /// (write-allocate). Determinism: the outcome depends only on the
    /// sequence of `(cycle, addr)` pairs presented.
    pub fn access(&mut self, cycle: u64, addr: Value, _write: bool) -> Access {
        self.retire(cycle);
        let line = addr.div_euclid(self.cfg.line_words() as i64);
        if self.l1.probe(line) {
            return Access {
                complete: cycle + self.cfg.l1_lat,
                level: HitLevel::L1,
                mshr_stall: false,
            };
        }
        // L1 miss: allocate an MSHR (stalling on a full table), probe L2.
        let (start, stalled) = if self.mshr.len() >= self.cfg.mshrs {
            let (i, &earliest) = self
                .mshr
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .expect("mshrs >= 1 checked at parse time");
            self.mshr.swap_remove(i);
            self.mshr_stalls += 1;
            (earliest.max(cycle), true)
        } else {
            (cycle, false)
        };
        let (level, lat) = if self.l2.probe(line) {
            (HitLevel::L2, self.cfg.l1_lat + self.cfg.l2_lat)
        } else {
            self.l2.fill(line);
            (HitLevel::Mem, self.cfg.l1_lat + self.cfg.l2_lat + self.cfg.mem_lat)
        };
        self.l1.fill(line);
        let complete = start + lat;
        self.mshr.push(complete);
        Access { complete, level, mshr_stall: stalled }
    }

    /// Drops MSHR entries whose fill completed at or before `cycle`.
    fn retire(&mut self, cycle: u64) {
        self.mshr.retain(|&c| c > cycle);
    }

    /// The earliest outstanding MSHR fill strictly after `cycle`, or `None`
    /// when the table is idle — the additional clamp an event-driven jump
    /// must respect so a fill (and the back-pressure release it implies) is
    /// never leapt over.
    pub fn next_fill(&mut self, cycle: u64) -> Option<u64> {
        self.retire(cycle);
        self.mshr.iter().copied().min()
    }

    /// Current counters (cheap copy; call at end of run for
    /// [`RunResult`](crate::RunResult)`::mem_stats`).
    pub fn stats(&self) -> MemStats {
        MemStats { l1: self.l1.stats, l2: self.l2.stats, mshr_stalls: self.mshr_stalls }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(l1_lines: u64, assoc: usize, mshrs: usize) -> CacheSim {
        CacheSim::new(CacheConfig {
            l1_bytes: l1_lines * 64,
            l2_bytes: 64 * 64,
            line_bytes: 64,
            l1_assoc: assoc,
            l2_assoc: 8,
            l1_lat: 2,
            l2_lat: 10,
            mem_lat: 100,
            mshrs,
        })
    }

    /// Word addresses of distinct lines (8 words per 64-byte line).
    fn line_addr(i: i64) -> Value {
        i * 8
    }

    #[test]
    fn hit_miss_latencies_follow_the_hierarchy() {
        let mut c = tiny(4, 4, 8);
        let a = c.access(0, line_addr(0), false);
        assert_eq!((a.level, a.complete), (HitLevel::Mem, 112)); // 2+10+100
        let b = c.access(5, line_addr(0), false);
        assert_eq!((b.level, b.complete), (HitLevel::L1, 7));
        // Evict line 0 from the 4-line L1 with four new lines, then return:
        for i in 1..=4 {
            c.access(10 + i as u64, line_addr(i), false);
        }
        let back = c.access(200, line_addr(0), false);
        assert_eq!((back.level, back.complete), (HitLevel::L2, 212)); // 2+10
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        // Fully associative 3-line L1; L2 large enough to hold everything.
        let mut c = tiny(3, 3, 8);
        for (t, l) in [(0, 0), (1, 1), (2, 2)] {
            c.access(t, line_addr(l), false);
        }
        c.access(3, line_addr(0), false); // order now (MRU..LRU) 0,2,1
        c.access(4, line_addr(3), false); // evicts 1
        assert_eq!(c.access(300, line_addr(0), false).level, HitLevel::L1);
        assert_eq!(c.access(301, line_addr(2), false).level, HitLevel::L1);
        assert_eq!(c.access(302, line_addr(3), false).level, HitLevel::L1);
        assert_eq!(c.access(303, line_addr(1), false).level, HitLevel::L2);
    }

    #[test]
    fn associativity_conflicts_thrash_a_single_set() {
        // 8 lines, 2-way => 4 sets. Lines 0, 4, 8 all map to set 0; with
        // only 2 ways they thrash even though the cache holds 8 lines.
        let mut c = tiny(8, 2, 8);
        let mut t = 0;
        for _ in 0..3 {
            for l in [0i64, 4, 8] {
                c.access(t, line_addr(l), false);
                t += 200;
            }
        }
        let s = c.stats();
        assert_eq!(s.l1.hits, 0, "3 lines round-robin through a 2-way set");
        assert_eq!(s.l1.misses, 9);
        // Same pattern with assoc 4 (2 sets of 4): all three fit one set.
        let mut c = tiny(8, 4, 8);
        let mut t = 0;
        for _ in 0..3 {
            for l in [0i64, 4, 8] {
                c.access(t, line_addr(l), false);
                t += 200;
            }
        }
        assert_eq!(c.stats().l1.misses, 3, "only the cold misses remain");
        assert_eq!(c.stats().l1.hits, 6);
    }

    #[test]
    fn full_mshr_table_backpressures_new_misses() {
        let mut c = tiny(64, 4, 2);
        // Three distinct-line misses in the same cycle: the third finds both
        // MSHRs busy and must wait for the earliest fill (cycle 112).
        let a = c.access(0, line_addr(0), false);
        let b = c.access(0, line_addr(1), false);
        let d = c.access(0, line_addr(2), false);
        assert_eq!(a.complete, 112);
        assert_eq!(b.complete, 112);
        assert!(!a.mshr_stall && !b.mshr_stall);
        assert!(d.mshr_stall);
        assert_eq!(d.complete, 112 + 112, "starts when the earliest fill lands");
        assert_eq!(c.stats().mshr_stalls, 1);
        // Once the fills retire, the table frees up: no stall.
        let e = c.access(500, line_addr(3), false);
        assert!(!e.mshr_stall);
        assert_eq!(e.complete, 612);
    }

    #[test]
    fn next_fill_tracks_the_earliest_outstanding_miss() {
        let mut c = tiny(64, 4, 8);
        assert_eq!(c.next_fill(0), None);
        c.access(0, line_addr(0), false); // completes 112
        c.access(50, line_addr(1), false); // completes 162
        assert_eq!(c.next_fill(60), Some(112));
        assert_eq!(c.next_fill(112), Some(162), "matured fills retire");
        assert_eq!(c.next_fill(162), None);
    }

    #[test]
    fn resident_and_peak_line_stats_track_occupancy() {
        let mut c = tiny(2, 2, 8);
        for l in 0..5 {
            c.access(l as u64 * 300, line_addr(l), false);
        }
        let s = c.stats();
        assert_eq!(s.l1.resident_lines, 2);
        assert_eq!(s.l1.peak_lines, 2);
        assert_eq!(s.l2.resident_lines, 5);
        assert_eq!(s.l2.peak_lines, 5);
        assert_eq!(s.l1.misses, 5);
        assert!((s.l1.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_addresses_bucket_cleanly() {
        let mut c = tiny(8, 4, 8);
        c.access(0, -1, false);
        let a = c.access(1, -8, false);
        assert_eq!(a.level, HitLevel::L1, "adjacent negative words share a line");
    }

    #[test]
    fn parse_rejects_degenerate_geometries() {
        assert!(MemConfig::parse("cached:l1=64,assoc1=4").is_err(), "l1 < one set");
        assert!(MemConfig::parse("cached:mshr=0").is_err());
        assert!(MemConfig::parse("cached:lat1=0").is_err());
        assert!(MemConfig::parse("cached:line=0").is_err());
        assert!(MemConfig::parse("cached:assoc2=0").is_err());
        assert!(MemConfig::parse("cached:bogus=1").is_err());
        assert!(MemConfig::parse("wat").is_err());
    }

    #[test]
    fn label_round_trips_through_parse() {
        for text in ["ideal", "ideal:200", "cached:l1=1k,l2=8k,mshr=4", "cached:line=32,lat1=1"] {
            let m = MemConfig::parse(text).unwrap();
            assert_eq!(MemConfig::parse(&m.label()).unwrap(), m);
        }
    }
}
