//! Elaborated dataflow graphs and per-architecture lowering for the TYR
//! reproduction.
//!
//! This crate is "the compiler back-end" of the paper (Sec. IV-C): it takes
//! the structured IR of `tyr-ir` and produces executable dataflow graphs for
//! the engines in `tyr-sim`:
//!
//! * [`lower::lower_tagged`] — tagged elaborations: TYR's concurrent-block
//!   linkage with local tag spaces (Fig. 10), or the naïve unordered
//!   elaborations (global tag space, bounded or unbounded) it is compared
//!   against.
//! * [`lower::lower_ordered`] — untagged ordered dataflow with per-edge
//!   FIFOs and controlled merges.
//!
//! # Example
//!
//! ```
//! use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
//! use tyr_ir::build::ProgramBuilder;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.func("main", 1);
//! let n = f.param(0);
//! let [i, nn] = f.begin_loop("count", [0.into(), n]);
//! let c = f.lt(i, nn);
//! f.begin_body(c);
//! let i2 = f.add(i, 1);
//! let [last] = f.end_loop([i2, nn], [i]);
//! let program = pb.finish(f, [last]);
//!
//! let dfg = lower_tagged(&program, TaggingDiscipline::Tyr)?;
//! // main + one loop = two concurrent blocks, each with its own tag space.
//! assert_eq!(dfg.blocks.len(), 2);
//! # Ok::<(), tyr_dfg::lower::LowerError>(())
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod lower;
#[cfg(test)]
mod reference;

pub use graph::{
    AllocKind, BlockId, BlockInfo, Dfg, Edge, Edges, GraphBuilder, InKind, Node, NodeId, NodeKind,
    PortIter, PortRef, Ports, ROOT_BLOCK,
};
pub use lower::{LowerError, TaggingDiscipline};
