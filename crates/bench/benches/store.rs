//! Micro-bench pairs for the tagged engine's token store: its access
//! pattern — one row resolution per operation (the engine before DESIGN.md
//! §7.9) vs one fused [`Rows::put`] per delivery and [`Rows::take`] per
//! firing — its sparse slot layout — a SipHash map of `Vec` rows, an FxHash
//! map of pooled [`ValueSlab`] rows, and an FxHash map holding the row
//! inline (§7.2) — and its hasher under a live state that spills L2 —
//! FxHash, which scatters consecutive tags, vs `TagHasher`, which places
//! them in adjacent buckets (§7.1). Run with
//! `cargo bench -p tyr-bench --bench store`; each pair isolates one
//! substitution the engine made, so the win (or a regression) is measurable
//! in-repo without profiling a whole simulation. The hash and slab
//! structures alone are measured by `benchmarks/` (`sim.fxhash.churn_ns`,
//! `sim.slab.turnover_ns`).

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasher;

use tyr_bench::micro::Harness;
use tyr_ir::Value;
use tyr_sim::fxhash::{FxBuildHasher, FxHashMap, TagBuildHasher};
use tyr_sim::slab::ValueSlab;
use tyr_sim::store::{DenseRows, Rows, SparseRows, IN_QUEUE};

/// Ports per token set: a two-input instruction, the widest the sparse
/// store keeps inline.
const PORTS: usize = 2;
/// Tags alive at once during churn (a realistic unordered working set).
const LIVE: u64 = 512;
/// Total tag lifetimes simulated per iteration.
const TURNOVER: u64 = 4096;

/// Rows live at once in the sliding-window churn: a table of them (32-byte
/// slots) spills L2, as the unordered baseline's live state does.
const WINDOW: u64 = 200_000;
/// Tag lifetimes per iteration of the sliding-window churn.
const SLIDE: u64 = 65_536;

/// A sparse store's slot table under hasher `S`.
type Slots<S> = HashMap<u64, (u64, [Value; PORTS]), S>;

/// A slot table holding the first token of each of [`WINDOW`] tags.
fn window<S: BuildHasher + Default>() -> Slots<S> {
    (0..WINDOW).map(|tag| (tag, (1, [tag as Value, 0]))).collect()
}

/// Slides the window `head` leads by [`SLIDE`] tags, one map probe per
/// token and per firing as `SparseRows` makes them: each new tag's first
/// token opens its slot, and the tag [`WINDOW`] behind it takes its second
/// token and fires, erasing its slot. As in the engine, where a firing's
/// result is what the next delivery carries, the next tag is computed from
/// the values the firing took, so each access waits for the one before.
fn slide<S: BuildHasher>(slots: &mut Slots<S>, head: &Cell<u64>) -> Value {
    let mut sum: Value = 0;
    let mut tag = head.get();
    for _ in 0..SLIDE {
        slots.insert(tag, (1, [tag as Value, 0]));
        let old = tag - WINDOW;
        if let Entry::Occupied(mut e) = slots.entry(old) {
            let (word, vals) = e.get_mut();
            (*word, vals[1]) = (*word | 2, 1);
        }
        let Entry::Occupied(e) = slots.entry(old) else { unreachable!("tag {old} is live") };
        let (_, vals) = e.remove();
        sum = sum.wrapping_add(vals[1]);
        tag = vals[0] as u64 + WINDOW + vals[1] as u64;
    }
    head.set(tag);
    sum
}

/// The token store as the engine drove it before §7.9: every operation
/// (`present`, `set`, `or_flags`, `clear`, `val`) resolves the row again —
/// re-matching the enum and, for the sparse store, re-probing the map —
/// through a call the engine's loop did not inline.
enum PerOpStore {
    Dense { n_ports: usize, present: Vec<u64>, vals: Vec<Value> },
    Sparse { map: FxHashMap<u64, (u64, u32)>, slab: ValueSlab },
}

impl PerOpStore {
    #[inline(never)]
    fn present(&self, tag: u64) -> u64 {
        match self {
            PerOpStore::Dense { present, .. } => present.get(tag as usize).copied().unwrap_or(0),
            PerOpStore::Sparse { map, .. } => map.get(&tag).map_or(0, |s| s.0),
        }
    }

    #[inline(never)]
    fn set(&mut self, tag: u64, port: u16, val: Value) -> u64 {
        match self {
            PerOpStore::Dense { n_ports, present, vals } => {
                let t = tag as usize;
                present[t] |= 1 << port;
                vals[t * *n_ports + port as usize] = val;
                present[t]
            }
            PerOpStore::Sparse { map, slab } => {
                let slot = map.entry(tag).or_insert_with(|| (0, slab.acquire()));
                slot.0 |= 1 << port;
                slab.set(slot.1, port, val);
                slot.0
            }
        }
    }

    #[inline(never)]
    fn or_flags(&mut self, tag: u64, flags: u64) {
        match self {
            PerOpStore::Dense { present, .. } => present[tag as usize] |= flags,
            PerOpStore::Sparse { map, slab } => {
                map.entry(tag).or_insert_with(|| (0, slab.acquire())).0 |= flags;
            }
        }
    }

    #[inline(never)]
    fn clear(&mut self, tag: u64, bits: u64) {
        match self {
            PerOpStore::Dense { present, .. } => present[tag as usize] &= !bits,
            PerOpStore::Sparse { map, slab } => {
                if let Some(slot) = map.get_mut(&tag) {
                    slot.0 &= !bits;
                    if slot.0 == 0 {
                        let row = slot.1;
                        map.remove(&tag);
                        slab.release(row);
                    }
                }
            }
        }
    }

    #[inline(never)]
    fn val(&self, tag: u64, port: u16) -> Value {
        match self {
            PerOpStore::Dense { n_ports, vals, .. } => {
                vals[tag as usize * *n_ports + port as usize]
            }
            PerOpStore::Sparse { map, slab } => slab.get(map[&tag].1, port),
        }
    }
}

/// Both inputs of a two-input instruction.
const BINARY: u64 = 0b11;

/// `TURNOVER` activations of a two-input instruction with `LIVE` of them in
/// flight: two deliveries complete the set, the firing reads and consumes
/// it. `deliver(tag, port, val)` and `fire(tag) -> a + b` are the engine's
/// two store-facing steps; `tag_of` maps an activation to its tag (dense
/// rows recycle, sparse tags only grow).
fn activations(
    tag_of: impl Fn(u64) -> u64,
    mut deliver: impl FnMut(u64, u16, Value),
    mut fire: impl FnMut(u64) -> Value,
) -> Value {
    let mut sum: Value = 0;
    for i in 0..TURNOVER + LIVE {
        if i >= LIVE {
            sum = sum.wrapping_add(fire(tag_of(i - LIVE)));
        }
        if i < TURNOVER {
            deliver(tag_of(i), 0, i as Value);
            deliver(tag_of(i), 1, 1);
        }
    }
    sum
}

/// The pre-§7.9 sequences: `present` → `set` → `or_flags` per delivery,
/// `clear(IN_QUEUE)` → `val` × 2 → `present` → `clear` per firing.
fn row_access_per_op(store: &std::cell::RefCell<PerOpStore>, tag_of: impl Fn(u64) -> u64) -> Value {
    activations(
        tag_of,
        |tag, port, val| {
            let mut s = store.borrow_mut();
            assert_eq!(s.present(tag) & 1 << port, 0, "second token on an occupied port");
            let present = s.set(tag, port, val);
            if present & BINARY == BINARY && present & IN_QUEUE == 0 {
                s.or_flags(tag, IN_QUEUE);
            }
        },
        |tag| {
            let mut s = store.borrow_mut();
            s.clear(tag, IN_QUEUE);
            let (a, b) = (s.val(tag, 0), s.val(tag, 1));
            let eaten = s.present(tag) & BINARY;
            s.clear(tag, eaten);
            a.wrapping_add(b)
        },
    )
}

/// The retained design: one `put` per delivery, one `take` per firing.
fn row_access_fused(store: &std::cell::RefCell<impl Rows>, tag_of: impl Fn(u64) -> u64) -> Value {
    activations(
        tag_of,
        |tag, port, val| {
            store.borrow_mut().put(tag, port, val, BINARY).expect("one token per port");
        },
        |tag| {
            let mut v = [0; 3];
            store.borrow_mut().take(tag, BINARY, &mut v);
            v[0].wrapping_add(v[1])
        },
    )
}

fn main() {
    let mut b = Harness::from_args("store");

    // Row-access fusion (DESIGN.md §7.9), on both store shapes. The stores
    // end every iteration empty, so they are built once.
    let rows = LIVE as usize;
    let dense = std::cell::RefCell::new(PerOpStore::Dense {
        n_ports: 2,
        present: vec![0; rows],
        vals: vec![0; rows * 2],
    });
    b.bench("row_access/dense/per_op", || row_access_per_op(&dense, |i| i % LIVE));
    let dense = std::cell::RefCell::new(DenseRows::new(2, rows));
    b.bench("row_access/dense/fused", || row_access_fused(&dense, |i| i % LIVE));
    let sparse = std::cell::RefCell::new(PerOpStore::Sparse {
        map: FxHashMap::default(),
        slab: ValueSlab::new(2),
    });
    // Tags keep growing across iterations, as the engine's counter does.
    let epoch = std::cell::Cell::new(0u64);
    let next_epoch = || epoch.replace(epoch.get() + TURNOVER);
    b.bench("row_access/sparse/per_op", || {
        let base = next_epoch();
        row_access_per_op(&sparse, |i| base + i)
    });
    let sparse = std::cell::RefCell::new(SparseRows::new(2));
    b.bench("row_access/sparse/fused", || {
        let base = next_epoch();
        row_access_fused(&sparse, |i| base + i)
    });

    // The sparse slot layouts: SipHash map of (present, Vec), fx-hashed map
    // of (present, slab row), and the engine's fx-hashed (present, values).
    b.bench("combined/siphash_vec", || {
        let mut map: HashMap<u64, (u64, Vec<Value>)> = HashMap::new();
        let mut sum: Value = 0;
        for tag in 0..TURNOVER {
            let slot = map.entry(tag).or_insert_with(|| (0, vec![0; PORTS]));
            slot.0 = 0b11;
            slot.1[0] = tag as Value;
            if tag >= LIVE {
                if let Some((_, vals)) = map.remove(&(tag - LIVE)) {
                    sum = sum.wrapping_add(vals[0]);
                }
            }
        }
        sum
    });
    b.bench("combined/fxhash_slab", || {
        let mut map: FxHashMap<u64, (u64, u32)> = FxHashMap::default();
        let mut slab = ValueSlab::new(PORTS);
        let mut sum: Value = 0;
        for tag in 0..TURNOVER {
            let slot = map.entry(tag).or_insert_with(|| (0, slab.acquire()));
            slot.0 = 0b11;
            let row = slot.1;
            slab.set(row, 0, tag as Value);
            if tag >= LIVE {
                if let Some((_, row)) = map.remove(&(tag - LIVE)) {
                    sum = sum.wrapping_add(slab.get(row, 0));
                    slab.release(row);
                }
            }
        }
        sum
    });
    b.bench("combined/fxhash_inline", || {
        let mut map: FxHashMap<u64, (u64, [Value; PORTS])> = FxHashMap::default();
        let mut sum: Value = 0;
        for tag in 0..TURNOVER {
            let slot = map.entry(tag).or_insert((0, [0; PORTS]));
            slot.0 = 0b11;
            slot.1[0] = tag as Value;
            if tag >= LIVE {
                if let Some((_, vals)) = map.remove(&(tag - LIVE)) {
                    sum = sum.wrapping_add(vals[0]);
                }
            }
        }
        sum
    });

    // The sparse store's hasher once the live state spills L2 (§7.1): the
    // same window churn under FxHash and under `TagHasher`.
    let (mut fx, fx_head) = (window::<FxBuildHasher>(), Cell::new(WINDOW));
    b.bench("sparse_window/fxhash", || slide(&mut fx, &fx_head));
    drop(fx);
    let (mut tag, tag_head) = (window::<TagBuildHasher>(), Cell::new(WINDOW));
    b.bench("sparse_window/tag", || slide(&mut tag, &tag_head));

    b.finish();
}
