//! A pooled slab of fixed-width value rows with a free list.
//!
//! The tagged engine's sparse token stores used to allocate a fresh
//! `vec![0; n_ports]` for every tag that received its first token and drop
//! it when the last token was consumed — one heap round-trip per dynamic
//! token set, on the hottest path of the unbounded-tag policies. The slab
//! replaces that with recycled rows carved out of one backing `Vec`: after
//! warm-up, acquiring and releasing a row touches no allocator at all.
//! Since the sparse store keeps rows of up to two ports inline in its map
//! slot, the slab holds only the rows of wider nodes.
//!
//! Rows are always handed out zeroed (matching the `vec![0; width]` the
//! slab replaces); zeroing happens on release, where the row's width is a
//! handful of ports at most.

use tyr_ir::Value;

/// A pool of fixed-width `Value` rows addressed by `u32` handles.
#[derive(Debug, Clone)]
pub struct ValueSlab {
    /// Values per row (a node's input-port count).
    width: usize,
    /// Backing storage: row `r` lives at `data[r * width .. (r + 1) * width]`.
    data: Vec<Value>,
    /// Recycled row handles, LIFO for cache warmth.
    free: Vec<u32>,
}

impl ValueSlab {
    /// An empty slab of `width`-value rows.
    pub fn new(width: usize) -> Self {
        ValueSlab { width, data: Vec::new(), free: Vec::new() }
    }

    /// The row width this slab was built with.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Hands out a zeroed row, recycling a released one when available.
    #[inline]
    pub fn acquire(&mut self) -> u32 {
        if let Some(row) = self.free.pop() {
            return row;
        }
        // Zero-width rows (a node with no inputs) all share handle 0 and no
        // storage; the division below must not see width 0.
        let stride = self.width.max(1);
        let row = (self.data.len() / stride) as u32;
        self.data.resize(self.data.len() + self.width, 0);
        row
    }

    /// Returns `row` to the pool, zeroing it for its next tenant.
    #[inline]
    pub fn release(&mut self, row: u32) {
        self.row_mut(row).fill(0);
        self.free.push(row);
    }

    /// Reads one value of `row`.
    #[inline]
    pub fn get(&self, row: u32, port: u16) -> Value {
        self.data[row as usize * self.width + port as usize]
    }

    /// Writes one value of `row`.
    #[inline]
    pub fn set(&mut self, row: u32, port: u16, val: Value) {
        self.data[row as usize * self.width + port as usize] = val;
    }

    /// All `width` values of `row`.
    #[inline]
    pub fn row_mut(&mut self, row: u32) -> &mut [Value] {
        let start = row as usize * self.width;
        &mut self.data[start..start + self.width]
    }

    /// Rows ever carved out of the backing storage (capacity high-water
    /// mark, not current occupancy).
    pub fn rows_allocated(&self) -> usize {
        self.data.len() / self.width.max(1)
    }

    /// Rows currently parked on the free list.
    pub fn rows_free(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_zeroed_and_recycled() {
        let mut s = ValueSlab::new(3);
        let a = s.acquire();
        s.set(a, 0, 7);
        s.set(a, 2, -4);
        assert_eq!(s.get(a, 0), 7);
        assert_eq!(s.get(a, 1), 0);
        assert_eq!(s.get(a, 2), -4);
        s.release(a);
        let b = s.acquire();
        assert_eq!(b, a, "released row is recycled LIFO");
        assert_eq!((s.get(b, 0), s.get(b, 1), s.get(b, 2)), (0, 0, 0), "recycled row is zeroed");
    }

    #[test]
    fn steady_state_stops_growing() {
        let mut s = ValueSlab::new(4);
        // Churn far more acquire/release pairs than live rows: the backing
        // store must stay at the high-water mark.
        let mut live = Vec::new();
        for i in 0..1000 {
            live.push(s.acquire());
            if i % 2 == 1 {
                s.release(live.swap_remove(0));
            }
        }
        let high_water = s.rows_allocated();
        for _ in 0..10_000 {
            let r = s.acquire();
            s.release(r);
        }
        assert_eq!(s.rows_allocated(), high_water, "steady-state churn must not grow the slab");
    }

    #[test]
    fn zero_width_rows_are_safe() {
        let mut s = ValueSlab::new(0);
        let a = s.acquire();
        let b = s.acquire();
        s.release(a);
        s.release(b);
        assert_eq!(s.rows_allocated(), 0);
        assert_eq!(s.width(), 0);
    }
}
