//! The tagged engine's token store: per node, one *row* per tag holding a
//! presence word (one bit per input port, plus the engine's activation
//! flags in the top bits) and the port values.
//!
//! TYR's bounded local tag spaces make the store a small directly-indexed
//! array ([`DenseRows`]) — the implementation benefit Sec. III claims —
//! while unbounded tags force an associative one ([`SparseRows`]). The
//! engine is generic over [`Rows`] and picks the representation once per
//! run from its tag policy, so no token pays for the other one. Either way
//! a token's arrival is *one* read-modify-write of its row ([`Rows::put`])
//! and a firing is one more ([`Rows::take`]): the dense store indexes the
//! row once, the sparse store probes its map once (DESIGN.md §7.9).

use std::collections::hash_map::Entry;

use tyr_ir::Value;

use crate::fxhash::TagHashMap;
use crate::result::SimError;
use crate::slab::ValueSlab;

/// Presence-word flag: the activation is on the engine's ready queue.
pub const IN_QUEUE: u64 = 1 << 63;

/// Token storage for one node, keyed by tag. Implementations supply the
/// row lookup; the delivery/firing contract is written once, on top of it.
pub trait Rows {
    /// Resolves `tag`'s row once — indexing an array or probing a map — and
    /// runs `f` on its presence word and port values; `None` for a tag the
    /// store cannot hold. A row whose word `f` leaves zero holds no tokens.
    fn row<R>(&mut self, tag: u64, f: impl FnOnce(&mut u64, &mut [Value]) -> R) -> Option<R>;

    /// The presence word under `tag` (0 for a tag the store does not hold:
    /// a corrupted dynamic tag must surface as [`SimError::TagOverflow`]
    /// from [`Rows::put`], not as an index fault).
    fn present(&self, tag: u64) -> u64;

    /// Rows the store can hold (`usize::MAX` when unbounded).
    fn capacity(&self) -> usize;

    /// Delivers a token: writes `val` to `port` under `tag`, sets its
    /// presence bit, and sets [`IN_QUEUE`] if that completes the `enqueue`
    /// mask (all of its bits present) on an activation not already queued.
    /// Returns the presence word `(before, after)`.
    ///
    /// # Errors
    ///
    /// [`SimError::TagOverflow`] with the store's capacity for a tag it
    /// cannot hold, and with `usize::MAX` for a second token on an occupied
    /// port — the cardinal tagged-dataflow invariant (Theorem 2's premise).
    #[inline]
    fn put(
        &mut self,
        tag: u64,
        port: u16,
        val: Value,
        enqueue: u64,
    ) -> Result<(u64, u64), SimError> {
        let bit = 1u64 << port;
        let put = self.row(tag, |word, vals| {
            let before = *word;
            if before & bit != 0 {
                return Err(SimError::TagOverflow { tag, space: usize::MAX });
            }
            let mut after = before | bit;
            if after & enqueue == enqueue && after & IN_QUEUE == 0 {
                after |= IN_QUEUE;
            }
            *word = after;
            vals[port as usize] = val;
            Ok((before, after))
        });
        put.unwrap_or_else(|| Err(SimError::TagOverflow { tag, space: self.capacity() }))
    }

    /// Fires an activation: moves the tokens on the ports in `mask` out of
    /// `tag`'s row — values of ports below `out.len()` land in `out`, other
    /// entries of `out` are left alone — and clears their presence bits and
    /// [`IN_QUEUE`]. Returns the presence word before the clear (0 for a
    /// tag the store does not hold).
    #[inline]
    fn take(&mut self, tag: u64, mask: u64, out: &mut [Value]) -> u64 {
        let taken = self.row(tag, |word, vals| {
            let before = *word;
            *word = before & !(mask | IN_QUEUE);
            for (p, (o, v)) in out.iter_mut().zip(vals.iter()).enumerate() {
                if mask >> p & 1 != 0 {
                    *o = *v;
                }
            }
            before
        });
        taken.unwrap_or(0)
    }

    /// Sets `flags` in `tag`'s presence word.
    #[inline]
    fn or_flags(&mut self, tag: u64, flags: u64) {
        self.row(tag, |word, _| *word |= flags);
    }

    /// Clears `bits` in `tag`'s presence word; returns the word afterwards.
    #[inline]
    fn clear(&mut self, tag: u64, bits: u64) -> u64 {
        let cleared = self.row(tag, |word, _| {
            *word &= !bits;
            *word
        });
        cleared.unwrap_or(0)
    }
}

/// A directly-indexed store of a fixed number of rows: bounded tag spaces.
pub struct DenseRows {
    n_ports: usize,
    present: Vec<u64>,
    vals: Vec<Value>,
}

impl DenseRows {
    /// `tags` rows of `n_ports` values.
    pub fn new(n_ports: usize, tags: usize) -> Self {
        DenseRows { n_ports, present: vec![0; tags], vals: vec![0; tags * n_ports] }
    }
}

impl Rows for DenseRows {
    /// Forced inline into the engine's loop: the index is the whole lookup.
    #[inline(always)]
    fn row<R>(&mut self, tag: u64, f: impl FnOnce(&mut u64, &mut [Value]) -> R) -> Option<R> {
        let t = tag as usize;
        let word = self.present.get_mut(t)?;
        Some(f(word, &mut self.vals[t * self.n_ports..(t + 1) * self.n_ports]))
    }

    #[inline]
    fn present(&self, tag: u64) -> u64 {
        self.present.get(tag as usize).copied().unwrap_or(0)
    }

    fn capacity(&self) -> usize {
        self.present.len()
    }
}

/// Port values a [`SparseRows`] slot holds inline.
const INLINE_PORTS: usize = 2;

/// A [`SparseRows`] table: tag -> (presence word, port values or slab row).
type SlotMap = TagHashMap<(u64, [Value; INLINE_PORTS])>;

/// A table with room for more than this many rows is rebuilt at its live
/// size once an erase leaves it at most 1/8 full ([`shrink_if_drained`]).
const SHRINK_ABOVE: usize = 64;

/// An associative store for unbounded tags. Keys are engine-generated tag
/// counters (never adversarial), so the map hashes with `TagHasher`: a tag's
/// value picks its bucket, and the run of consecutive tags a node sees fills
/// adjacent buckets. A slot is the presence word and the port values, so a
/// token's match touches one map entry and nothing else; a node wider than
/// two ports keeps its values in a pooled [`ValueSlab`] row instead,
/// whose handle sits in the slot's first value. A slot (and its slab row)
/// exists exactly while its presence word is nonzero.
pub struct SparseRows {
    map: SlotMap,
    /// Rows of a node wider than [`INLINE_PORTS`]; `None` keeps them inline.
    wide: Option<ValueSlab>,
}

impl SparseRows {
    /// An empty store for a node with `n_ports` input ports.
    pub fn new(n_ports: usize) -> Self {
        let wide = (n_ports > INLINE_PORTS).then(|| ValueSlab::new(n_ports));
        SparseRows { map: SlotMap::default(), wide }
    }
}

/// Called after every erase: once a table with room for more than
/// [`SHRINK_ABOVE`] rows is at most 1/8 full, rebuild it at its live size.
/// Erasing inside a run of 16 or more full buckets — the oldest row of a
/// window of consecutive tags — leaves a tombstone, and a table whose growth
/// budget tombstones have used up doubles at 7/16 full rather than 7/8; the
/// rebuild drops them, and frees a table that drained.
#[inline]
fn shrink_if_drained(map: &mut SlotMap) {
    let capacity = map.capacity();
    if capacity > SHRINK_ABOVE && map.len() <= capacity / 8 {
        map.shrink_to_fit();
    }
}

/// [`SparseRows::row`] for a node wider than [`INLINE_PORTS`]: the slot's
/// first value is the handle of the slab row holding the port values.
#[cold]
fn wide_row<R>(
    map: &mut SlotMap,
    slab: &mut ValueSlab,
    tag: u64,
    f: impl FnOnce(&mut u64, &mut [Value]) -> R,
) -> R {
    match map.entry(tag) {
        Entry::Occupied(mut e) => {
            let (word, handle) = e.get_mut();
            let row = handle[0] as u32;
            let r = f(word, slab.row_mut(row));
            if *word == 0 {
                e.remove();
                slab.release(row);
                shrink_if_drained(map);
            }
            r
        }
        Entry::Vacant(e) => {
            let (mut word, row) = (0, slab.acquire());
            let r = f(&mut word, slab.row_mut(row));
            if word == 0 {
                slab.release(row);
            } else {
                e.insert((word, [row as Value, 0]));
            }
            r
        }
    }
}

impl Rows for SparseRows {
    /// One map probe; the last `take` of a row both finds and erases it.
    #[inline]
    fn row<R>(&mut self, tag: u64, f: impl FnOnce(&mut u64, &mut [Value]) -> R) -> Option<R> {
        if let Some(slab) = &mut self.wide {
            return Some(wide_row(&mut self.map, slab, tag, f));
        }
        Some(match self.map.entry(tag) {
            Entry::Occupied(mut e) => {
                let (word, vals) = e.get_mut();
                let r = f(word, vals);
                if *word == 0 {
                    e.remove();
                    shrink_if_drained(&mut self.map);
                }
                r
            }
            Entry::Vacant(e) => {
                let (mut word, mut vals) = (0, [0; INLINE_PORTS]);
                let r = f(&mut word, &mut vals);
                if word != 0 {
                    e.insert((word, vals));
                }
                r
            }
        })
    }

    #[inline]
    fn present(&self, tag: u64) -> u64 {
        self.map.get(&tag).map_or(0, |s| s.0)
    }

    fn capacity(&self) -> usize {
        usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;

    /// Widest row under test; a store of width `w` is driven on ports
    /// `0..w` only.
    const MAX_PORTS: usize = 5;
    /// Rows of the dense store under test; tags up to `ROWS + 1` are drawn.
    const ROWS: u64 = 6;
    const UNTOUCHED: Value = -77;

    /// The obviously-correct model: tag -> (presence word, port values),
    /// holding an entry exactly while the word is nonzero.
    type Model = BTreeMap<u64, (u64, [Value; MAX_PORTS])>;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// What a `put` did, by the model's reckoning.
    #[derive(Debug, PartialEq)]
    enum Put {
        Stored,
        Duplicate,
        Overflow,
    }

    /// Puts the same token into `store` and the model and checks the
    /// store's answer against the model's. `rows` is the dense capacity
    /// (`None` for sparse).
    fn put_both<S: Rows>(
        store: &mut S,
        model: &mut Model,
        rows: Option<u64>,
        (tag, port, val): (u64, u16, Value),
        enqueue: u64,
    ) -> Put {
        let got = store.put(tag, port, val, enqueue);
        let word = model.get(&tag).map_or(0, |e| e.0);
        if let Some(space) = rows.filter(|&r| tag >= r) {
            assert_eq!(got, Err(SimError::TagOverflow { tag, space: space as usize }));
            Put::Overflow
        } else if word & (1 << port) != 0 {
            assert_eq!(got, Err(SimError::TagOverflow { tag, space: usize::MAX }));
            Put::Duplicate
        } else {
            let mut after = word | 1 << port;
            if after & enqueue == enqueue && after & IN_QUEUE == 0 {
                after |= IN_QUEUE;
            }
            assert_eq!(got, Ok((word, after)));
            let e = model.entry(tag).or_insert((0, [0; MAX_PORTS]));
            (e.0, e.1[port as usize]) = (after, val);
            Put::Stored
        }
    }

    /// Takes the tokens on `mask` from `tag`'s row of both and checks the
    /// presence word and the values the store hands out.
    fn take_both<S: Rows>(store: &mut S, model: &mut Model, tag: u64, mask: u64) {
        let mut out = [UNTOUCHED; 3];
        let before = store.take(tag, mask, &mut out);
        let (word, vals) = model.get(&tag).copied().unwrap_or((0, [0; MAX_PORTS]));
        assert_eq!(before, word, "tag {tag}");
        for (p, o) in out.iter().enumerate() {
            if mask >> p & 1 == 0 {
                assert_eq!(*o, UNTOUCHED, "port {p} is outside the mask");
            } else if word >> p & 1 != 0 {
                assert_eq!(*o, vals[p], "port {p} held a token");
            }
        }
        if let Some(e) = model.get_mut(&tag) {
            e.0 &= !(mask | IN_QUEUE);
        }
    }

    /// Drops `tag`'s model entry once its word is zero, as the store must
    /// have done; returns whether it did.
    fn settle(model: &mut Model, tag: u64) -> bool {
        let empty = model.get(&tag).is_some_and(|e| e.0 == 0);
        if empty {
            model.remove(&tag);
        }
        empty
    }

    /// Slots and slab rows a store of `width` ports must hold for `model`:
    /// a row is held exactly while its presence word is nonzero, released
    /// the moment it reaches zero.
    fn expected_held(model: &Model, width: usize) -> (usize, usize) {
        (model.len(), if width > INLINE_PORTS { model.len() } else { 0 })
    }

    /// Drives `store` and the model with the same random `put`/`take`/flag
    /// sequence on ports `0..width` and compares every return value and,
    /// after every step, every presence word. `rows` is the dense capacity
    /// (`None` for sparse); `held` reports, for a sparse store, how many
    /// slots and slab rows it holds ([`expected_held`]).
    fn differential<S: Rows>(
        mut store: S,
        width: usize,
        rows: Option<u64>,
        held: impl Fn(&S) -> Option<(usize, usize)>,
    ) {
        let mut model = Model::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ width as u64;
        let in_range = |tag: u64| rows.is_none_or(|r| tag < r);
        let ports = (1u64 << width) - 1;
        let (mut overflows, mut duplicates, mut releases) = (0, 0, 0);
        for _ in 0..40_000 {
            let tag = xorshift(&mut rng) % (ROWS + 2);
            match xorshift(&mut rng) % 6 {
                0..=2 => {
                    let port = (xorshift(&mut rng) % width as u64) as u16;
                    let val = xorshift(&mut rng) as Value;
                    let enqueue = [ports, 0, u64::MAX][(xorshift(&mut rng) % 3) as usize];
                    match put_both(&mut store, &mut model, rows, (tag, port, val), enqueue) {
                        Put::Overflow => overflows += 1,
                        Put::Duplicate => duplicates += 1,
                        Put::Stored => {}
                    }
                }
                3 => take_both(&mut store, &mut model, tag, xorshift(&mut rng) & ports),
                4 => {
                    let flags = [1 << 62, 1 << 61, IN_QUEUE][(xorshift(&mut rng) % 3) as usize];
                    store.or_flags(tag, flags);
                    if in_range(tag) {
                        model.entry(tag).or_insert((0, [0; MAX_PORTS])).0 |= flags;
                    }
                }
                _ => {
                    let bits = xorshift(&mut rng) | xorshift(&mut rng);
                    let now = store.clear(tag, bits);
                    let e = model.entry(tag).or_insert((0, [0; MAX_PORTS]));
                    e.0 &= !bits;
                    assert_eq!(now, e.0);
                }
            }
            if settle(&mut model, tag) {
                releases += 1;
            }
            for t in 0..ROWS + 2 {
                assert_eq!(store.present(t), model.get(&t).map_or(0, |e| e.0), "tag {t}");
            }
            if let Some(got) = held(&store) {
                assert_eq!(got, expected_held(&model, width));
            }
        }
        assert!(duplicates > 100 && releases > 100, "the sequence must exercise both");
        assert_eq!(overflows > 0, rows.is_some());
    }

    fn sparse_holds(s: &SparseRows) -> (usize, usize) {
        let slab_rows = s.wide.as_ref().map_or(0, |w| w.rows_allocated() - w.rows_free());
        (s.map.len(), slab_rows)
    }

    #[test]
    fn dense_store_matches_the_reference_model() {
        for width in [1, 2, 3, MAX_PORTS] {
            differential(DenseRows::new(width, ROWS as usize), width, Some(ROWS), |_| None);
        }
    }

    /// Widths 1 and 2 keep their values in the slot, 3 and 5 in the slab.
    #[test]
    fn sparse_store_matches_the_reference_model() {
        for width in [1, 2, 3, MAX_PORTS] {
            differential(SparseRows::new(width), width, None, |s| Some(sparse_holds(s)));
        }
    }

    /// Delivers the rest of `tag`'s ports and fires it (now and then in two
    /// takes), leaving its row released.
    fn complete(store: &mut SparseRows, model: &mut Model, tag: u64, width: usize, rng: &mut u64) {
        let ports = (1u64 << width) - 1;
        for port in 1..width as u16 {
            let token = (tag, port, xorshift(rng) as Value);
            assert_eq!(put_both(store, model, None, token, ports), Put::Stored);
        }
        if xorshift(rng).is_multiple_of(8) {
            take_both(store, model, tag, 1);
            assert!(!settle(model, tag), "ports 1.. still hold tokens");
        }
        take_both(store, model, tag, ports);
        assert!(settle(model, tag), "a fired row holds nothing");
    }

    /// The tag streams the unordered engine's counter produces, which the
    /// `0..8` tags above never reach: a window of live rows slides over a
    /// monotone counter and fires them slightly out of order, a straggler
    /// now and then stays live while the window passes it, strides are
    /// powers of two, and every phase drains the store to empty before the
    /// next refills it. The tables grow, wrap around, leave tombstones and
    /// shrink, at an inline width and a slab one; after every drain a table
    /// must be back to room for at most [`SHRINK_ABOVE`] rows.
    #[test]
    fn sparse_store_matches_the_reference_model_on_tag_streams() {
        // (first tag, stride, live window); the third phase crosses 2^57,
        // above which tags share `TagHasher`'s low bits with smaller ones.
        const PHASES: [(u64, u64, usize); 6] = [
            (0, 1, 700),
            (1 << 20, 1, 3000),
            ((1 << 57) - 2000, 1, 1500),
            (1 << 30, 2, 900),
            (1 << 31, 8, 900),
            (1 << 32, 1 << 12, 300),
        ];
        for width in [INLINE_PORTS, INLINE_PORTS + 1] {
            let mut store = SparseRows::new(width);
            let mut model = Model::new();
            let mut rng = 0x2545_f491_4f6c_dd1du64 ^ width as u64;
            let ports = (1u64 << width) - 1;
            for (phase, (first, stride, window)) in PHASES.into_iter().enumerate() {
                let (mut open, mut stragglers) = (VecDeque::new(), Vec::new());
                let mut peak = 0;
                for i in 0..4 * window as u64 {
                    let tag = first + i * stride;
                    let token = (tag, 0, tag as Value);
                    assert_eq!(put_both(&mut store, &mut model, None, token, ports), Put::Stored);
                    if xorshift(&mut rng).is_multiple_of(64) {
                        stragglers.push(tag);
                    } else {
                        open.push_back(tag);
                    }
                    if open.len() > window {
                        let oldest = (xorshift(&mut rng) % 4) as usize;
                        let old = open.remove(oldest).expect("the window is full");
                        complete(&mut store, &mut model, old, width, &mut rng);
                    }
                    if i % 97 == 0 {
                        // Neither a second token on an occupied port nor a
                        // take of a tag not yet live may leave a slot.
                        let again = (tag, 0, 1);
                        let dup = put_both(&mut store, &mut model, None, again, ports);
                        assert_eq!(dup, Put::Duplicate);
                        take_both(&mut store, &mut model, tag + stride, ports);
                        assert!(!settle(&mut model, tag + stride));
                    }
                    assert_eq!(store.present(tag), model[&tag].0, "tag {tag}");
                    assert_eq!(sparse_holds(&store), expected_held(&model, width));
                    peak = peak.max(store.map.capacity());
                }
                for (t, e) in &model {
                    assert_eq!(store.present(*t), e.0, "tag {t}");
                }
                let mut drain: Vec<u64> = stragglers.into_iter().chain(open).collect();
                if phase % 2 == 1 {
                    drain.reverse();
                }
                for tag in drain {
                    complete(&mut store, &mut model, tag, width, &mut rng);
                    assert_eq!(sparse_holds(&store), expected_held(&model, width));
                }
                assert!(model.is_empty());
                assert!(peak >= window, "phase {phase}: the table never grew ({peak})");
                let capacity = store.map.capacity();
                assert!(capacity <= SHRINK_ABOVE, "phase {phase}: drained table kept {capacity}");
            }
        }
    }
}
