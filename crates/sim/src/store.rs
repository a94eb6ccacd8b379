//! The tagged engine's token store: per node, one *row* per tag holding a
//! presence word (one bit per input port, plus the engine's activation
//! flags in the top bits) and the port values.
//!
//! TYR's bounded local tag spaces make the store a small directly-indexed
//! array — the implementation benefit Sec. III claims — while unbounded
//! tags force an associative one. Either way a token's arrival is *one*
//! read-modify-write of its row ([`TokenStore::put`]) and a firing is one
//! more ([`TokenStore::take`]): the dense store indexes the row once, the
//! sparse store probes its map once (DESIGN.md §7.9).

use std::collections::hash_map::Entry;

use tyr_ir::Value;

use crate::fxhash::FxHashMap;
use crate::result::SimError;
use crate::slab::ValueSlab;

/// Presence-word flag: the activation is on the engine's ready queue.
pub const IN_QUEUE: u64 = 1 << 63;

/// Token storage for one node, keyed by tag.
pub struct TokenStore(Repr);

enum Repr {
    Dense {
        n_ports: usize,
        present: Vec<u64>,
        vals: Vec<Value>,
    },
    /// Keys are engine-generated tag counters (never adversarial), so the
    /// map hashes with `FxHasher` rather than SipHash; rows live in a
    /// pooled [`ValueSlab`] so steady-state token match/clear never touches
    /// the allocator.
    Sparse {
        map: FxHashMap<u64, SparseSlot>,
        slab: ValueSlab,
    },
}

struct SparseSlot {
    present: u64,
    /// Row handle into the store's [`ValueSlab`].
    row: u32,
}

/// [`TokenStore::row`] for a sparse store: one map probe. A row exists
/// exactly while its presence word is nonzero — it is acquired on demand and
/// released as soon as `f` leaves the word zero.
#[inline]
fn sparse_row<R>(
    map: &mut FxHashMap<u64, SparseSlot>,
    slab: &mut ValueSlab,
    tag: u64,
    f: impl FnOnce(&mut u64, &mut [Value]) -> R,
) -> R {
    match map.entry(tag) {
        Entry::Occupied(mut e) => {
            let slot = e.get_mut();
            let r = f(&mut slot.present, slab.row_mut(slot.row));
            if slot.present == 0 {
                slab.release(e.remove().row);
            }
            r
        }
        Entry::Vacant(e) => {
            let (mut present, row) = (0, slab.acquire());
            let r = f(&mut present, slab.row_mut(row));
            if present == 0 {
                slab.release(row);
            } else {
                e.insert(SparseSlot { present, row });
            }
            r
        }
    }
}

impl TokenStore {
    /// A directly-indexed store of `tags` rows of `n_ports` values.
    pub fn dense(n_ports: usize, tags: usize) -> Self {
        TokenStore(Repr::Dense { n_ports, present: vec![0; tags], vals: vec![0; tags * n_ports] })
    }

    /// An associative store for unbounded tags.
    pub fn sparse(n_ports: usize) -> Self {
        TokenStore(Repr::Sparse { map: FxHashMap::default(), slab: ValueSlab::new(n_ports) })
    }

    /// Resolves `tag`'s row once — indexing the dense arrays or probing the
    /// map — and runs `f` on its presence word and port values; `None` for
    /// a tag outside a dense store. The dense arm is forced inline into the
    /// engine's loop; the map probe stays a call.
    #[inline(always)]
    fn row<R>(&mut self, tag: u64, f: impl FnOnce(&mut u64, &mut [Value]) -> R) -> Option<R> {
        match &mut self.0 {
            Repr::Dense { n_ports, present, vals } => {
                let t = tag as usize;
                let word = present.get_mut(t)?;
                Some(f(word, &mut vals[t * *n_ports..(t + 1) * *n_ports]))
            }
            Repr::Sparse { map, slab } => Some(sparse_row(map, slab, tag, f)),
        }
    }

    /// Delivers a token: writes `val` to `port` under `tag`, sets its
    /// presence bit, and sets [`IN_QUEUE`] if that completes the `enqueue`
    /// mask (all of its bits present) on an activation not already queued.
    /// Returns the presence word `(before, after)`.
    ///
    /// # Errors
    ///
    /// [`SimError::TagOverflow`] with the store's size for a tag outside a
    /// dense store, and with `usize::MAX` for a second token on an occupied
    /// port — the cardinal tagged-dataflow invariant (Theorem 2's premise).
    #[inline]
    pub fn put(
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
        put.unwrap_or_else(|| Err(SimError::TagOverflow { tag, space: self.rows() }))
    }

    /// Fires an activation: moves the tokens on the ports in `mask` out of
    /// `tag`'s row — values of ports below `out.len()` land in `out`, other
    /// entries of `out` are left alone — and clears their presence bits and
    /// [`IN_QUEUE`]. Returns the presence word before the clear (0 for a
    /// tag the store does not hold).
    #[inline]
    pub fn take(&mut self, tag: u64, mask: u64, out: &mut [Value]) -> u64 {
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

    /// The presence word under `tag` (0 for a tag the store does not hold:
    /// a corrupted dynamic tag must surface as [`SimError::TagOverflow`]
    /// from [`TokenStore::put`], not as an index fault).
    #[inline]
    pub fn present(&self, tag: u64) -> u64 {
        match &self.0 {
            Repr::Dense { present, .. } => present.get(tag as usize).copied().unwrap_or(0),
            Repr::Sparse { map, .. } => map.get(&tag).map_or(0, |s| s.present),
        }
    }

    /// Sets `flags` in `tag`'s presence word.
    #[inline]
    pub fn or_flags(&mut self, tag: u64, flags: u64) {
        self.row(tag, |word, _| *word |= flags);
    }

    /// Clears `bits` in `tag`'s presence word; returns the word afterwards.
    #[inline]
    pub fn clear(&mut self, tag: u64, bits: u64) -> u64 {
        let cleared = self.row(tag, |word, _| {
            *word &= !bits;
            *word
        });
        cleared.unwrap_or(0)
    }

    /// Rows a dense store holds; `usize::MAX` for a sparse one.
    fn rows(&self) -> usize {
        match &self.0 {
            Repr::Dense { present, .. } => present.len(),
            Repr::Sparse { .. } => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    const PORTS: usize = 4;
    /// Rows of the dense store under test; tags up to `ROWS + 1` are drawn.
    const ROWS: u64 = 6;
    const UNTOUCHED: Value = -77;

    /// The obviously-correct model: tag -> (presence word, port values),
    /// holding an entry exactly while the word is nonzero.
    type Model = BTreeMap<u64, (u64, [Value; PORTS])>;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Drives `store` and the model with the same random `put`/`take`/flag
    /// sequence and compares every return value and, after every step, every
    /// presence word. `rows` is the dense capacity (`None` for sparse).
    fn differential(mut store: TokenStore, rows: Option<u64>) {
        let mut model = Model::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let in_range = |tag: u64| rows.is_none_or(|r| tag < r);
        let (mut overflows, mut duplicates, mut releases) = (0, 0, 0);
        for _ in 0..40_000 {
            let tag = xorshift(&mut rng) % (ROWS + 2);
            match xorshift(&mut rng) % 6 {
                0..=2 => {
                    let port = (xorshift(&mut rng) % PORTS as u64) as u16;
                    let val = xorshift(&mut rng) as Value;
                    let enqueue = [0b0111, 0, u64::MAX][(xorshift(&mut rng) % 3) as usize];
                    let got = store.put(tag, port, val, enqueue);
                    let word = model.get(&tag).map_or(0, |e| e.0);
                    if !in_range(tag) {
                        let space = rows.unwrap() as usize;
                        assert_eq!(got, Err(SimError::TagOverflow { tag, space }));
                        overflows += 1;
                    } else if word & (1 << port) != 0 {
                        assert_eq!(got, Err(SimError::TagOverflow { tag, space: usize::MAX }));
                        duplicates += 1;
                    } else {
                        let mut after = word | 1 << port;
                        if after & enqueue == enqueue && after & IN_QUEUE == 0 {
                            after |= IN_QUEUE;
                        }
                        assert_eq!(got, Ok((word, after)));
                        let e = model.entry(tag).or_insert((0, [0; PORTS]));
                        (e.0, e.1[port as usize]) = (after, val);
                    }
                }
                3 => {
                    let mask = xorshift(&mut rng) % (1 << PORTS);
                    let mut out = [UNTOUCHED; 3];
                    let before = store.take(tag, mask, &mut out);
                    let (word, vals) = model.get(&tag).copied().unwrap_or((0, [0; PORTS]));
                    assert_eq!(before, word);
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
                4 => {
                    let flags = [1 << 62, 1 << 61, IN_QUEUE][(xorshift(&mut rng) % 3) as usize];
                    store.or_flags(tag, flags);
                    if in_range(tag) {
                        model.entry(tag).or_insert((0, [0; PORTS])).0 |= flags;
                    }
                }
                _ => {
                    let bits = xorshift(&mut rng) | xorshift(&mut rng);
                    let now = store.clear(tag, bits);
                    let e = model.entry(tag).or_insert((0, [0; PORTS]));
                    e.0 &= !bits;
                    assert_eq!(now, e.0);
                }
            }
            let before = model.len();
            model.retain(|_, e| e.0 != 0);
            releases += before - model.len();
            for t in 0..ROWS + 2 {
                assert_eq!(store.present(t), model.get(&t).map_or(0, |e| e.0), "tag {t}");
            }
            if let Repr::Sparse { map, slab } = &store.0 {
                // A slab row is held exactly while its presence word is
                // nonzero: released the moment it reaches zero.
                assert_eq!(map.len(), model.len());
                assert_eq!(slab.rows_allocated() - slab.rows_free(), model.len());
            }
        }
        assert!(duplicates > 100 && releases > 100, "the sequence must exercise both");
        assert_eq!(overflows > 0, rows.is_some());
    }

    #[test]
    fn dense_store_matches_the_reference_model() {
        differential(TokenStore::dense(PORTS, ROWS as usize), Some(ROWS));
    }

    #[test]
    fn sparse_store_matches_the_reference_model() {
        differential(TokenStore::sparse(PORTS), None);
    }
}
