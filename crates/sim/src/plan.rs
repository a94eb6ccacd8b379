//! The tagged engine's pre-decoded execution plan: one linear pass over the
//! [`Dfg`] flattens everything the fire/deliver loop reads per token into
//! index-addressed tables, so the loop never chases a `Node`'s `Vec`s or
//! looks a target's block up (DESIGN.md §7.9).

use tyr_dfg::{AllocKind, BlockId, Dfg, InKind, NodeKind, PortRef};
use tyr_ir::{AluOp, Value};

/// Maximum wired inputs per node.
const MAX_WIRED: usize = 48;
/// Input ports a presence word has bits for (the top three are engine
/// flags).
const PORT_BITS: usize = 61;

/// [`NodeKind`], `Copy` and without the ordered-only `CMerge`.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    Alu(AluOp),
    Load,
    Store,
    StoreAdd,
    Select,
    Steer,
    Merge,
    Join,
    Allocate { space: BlockId, kind: AllocKind },
    NewTag,
    Free { space: BlockId },
    ChangeTag,
    ChangeTagDyn,
    ExtractTag,
    Source,
    Sink,
    Const(Value),
}

/// What the hot loop knows about one node.
#[derive(Clone, Copy)]
pub(crate) struct PlanNode {
    pub(crate) op: Op,
    /// Presence bits of the wired inputs.
    pub(crate) required: u64,
    /// The `enqueue` mask deliveries pass to `Rows::put`: the full
    /// input set for strict nodes, nothing for `merge` (any arrival fires
    /// it), and never satisfiable for `allocate` (the tag policy decides).
    pub(crate) enqueue: u64,
    /// Immediates of the first three input ports (0 where wired).
    pub(crate) imm: [Value; 3],
    pub(crate) block: u32,
    /// Index of output port 0 in `Plan::ports`.
    outs: u32,
    pub(crate) n_outs: u16,
    pub(crate) n_ins: u16,
    /// A token-synchronization instruction (`TaggedConfig::free_token_sync`).
    pub(crate) is_sync: bool,
}

/// One wire of an output port's fan-out.
#[derive(Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) to: PortRef,
    /// The target's block.
    pub(crate) block: u32,
    /// Length of the run of consecutive same-block edges starting here.
    pub(crate) run: u32,
}

pub(crate) struct Plan {
    pub(crate) nodes: Vec<PlanNode>,
    /// Output port `q` of a node fans out to
    /// `edges[ports[outs + q]..ports[outs + q + 1]]`.
    ports: Vec<u32>,
    edges: Vec<Edge>,
    /// Wired-input count of the first node the token store cannot hold.
    pub(crate) too_wide: Option<usize>,
}

impl Plan {
    pub(crate) fn compile(dfg: &Dfg) -> Plan {
        let n_ports: usize = dfg.nodes().map(|n| n.outs().len()).sum();
        let n_edges: usize = dfg.nodes().flat_map(|n| n.outs()).map(<[_]>::len).sum();
        let mut plan = Plan {
            nodes: Vec::with_capacity(dfg.len()),
            ports: Vec::with_capacity(n_ports + 1),
            edges: Vec::with_capacity(n_edges),
            too_wide: None,
        };
        plan.ports.push(0);
        for n in dfg.nodes() {
            let (mut required, mut imm, mut wired) = (0u64, [0; 3], 0);
            for (i, k) in n.ins().iter().enumerate() {
                match *k {
                    InKind::Wire => {
                        required |= 1u64.checked_shl(i as u32).unwrap_or(0);
                        wired += 1;
                    }
                    InKind::Imm(v) if i < 3 => imm[i] = v,
                    InKind::Imm(_) => {}
                }
            }
            if wired > MAX_WIRED || n.ins().len() > PORT_BITS {
                plan.too_wide = plan.too_wide.or(Some(wired));
            }
            let op = match *n.kind() {
                NodeKind::Alu(op) => Op::Alu(op),
                NodeKind::Load => Op::Load,
                NodeKind::Store => Op::Store,
                NodeKind::StoreAdd => Op::StoreAdd,
                NodeKind::Select => Op::Select,
                NodeKind::Steer => Op::Steer,
                NodeKind::Merge => Op::Merge,
                NodeKind::Join => Op::Join,
                NodeKind::Allocate { space, kind } => Op::Allocate { space, kind },
                NodeKind::NewTag => Op::NewTag,
                NodeKind::Free { space } => Op::Free { space },
                NodeKind::ChangeTag => Op::ChangeTag,
                NodeKind::ChangeTagDyn => Op::ChangeTagDyn,
                NodeKind::ExtractTag => Op::ExtractTag,
                NodeKind::Source => Op::Source,
                NodeKind::Sink => Op::Sink,
                NodeKind::Const(c) => Op::Const(c),
                NodeKind::CMerge { .. } => unreachable!("CMerge only appears in ordered lowerings"),
            };
            plan.nodes.push(PlanNode {
                op,
                required,
                enqueue: match op {
                    Op::Allocate { .. } => u64::MAX,
                    Op::Merge => 0,
                    _ => required,
                },
                imm,
                block: n.block().0,
                outs: plan.ports.len() as u32 - 1,
                n_outs: n.outs().len() as u16,
                n_ins: n.ins().len() as u16,
                is_sync: matches!(
                    op,
                    Op::Allocate { .. }
                        | Op::NewTag
                        | Op::Free { .. }
                        | Op::ChangeTag
                        | Op::ChangeTagDyn
                        | Op::ExtractTag
                        | Op::Join
                        | Op::Merge
                        | Op::Const(_)
                ),
            });
            for targets in n.outs() {
                let first = plan.edges.len();
                plan.edges.extend(targets.iter().map(|&to| Edge {
                    to,
                    block: dfg.node(to.node).block().0,
                    run: 1,
                }));
                for i in (first..plan.edges.len().saturating_sub(1)).rev() {
                    if plan.edges[i].block == plan.edges[i + 1].block {
                        plan.edges[i].run += plan.edges[i + 1].run;
                    }
                }
                plan.ports.push(plan.edges.len() as u32);
            }
        }
        plan
    }

    /// The fan-out of `n`'s output `port` (empty for a port `n` lacks).
    #[inline]
    pub(crate) fn out(&self, n: &PlanNode, port: u16) -> &[Edge] {
        if port >= n.n_outs {
            return &[];
        }
        let i = (n.outs + port as u32) as usize;
        &self.edges[self.ports[i] as usize..self.ports[i + 1] as usize]
    }
}
