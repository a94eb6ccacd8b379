//! The nested-`Vec` node layout and builder that [`Dfg`]'s flat rows
//! replaced: one owned `ins` vector, one vector per output port and one
//! label string per node. [`GraphBuilder`](crate::GraphBuilder) feeds
//! every call to this builder too in test builds, and its `finish` checks
//! with [`diff`] that both graphs agree row for row: kind, block, inputs,
//! each port's targets in order, and label, then every edge in
//! [`Dfg::edges`] order.

use tyr_ir::Value;

use crate::graph::{BlockId, Dfg, Edge, InKind, NodeId, NodeKind, PortRef};

/// One node as the nested layout stored it.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    pub block: BlockId,
    pub ins: Vec<InKind>,
    pub outs: Vec<Vec<PortRef>>,
    pub label: String,
}

/// The nested-layout builder.
#[derive(Debug, Default)]
pub(crate) struct Builder {
    pub nodes: Vec<Node>,
}

impl Builder {
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        block: BlockId,
        ins: Vec<InKind>,
        n_outs: usize,
        label: String,
    ) {
        self.nodes.push(Node { kind, block, ins, outs: vec![Vec::new(); n_outs], label });
    }

    pub fn connect(&mut self, from: NodeId, from_port: u16, to: PortRef) {
        self.nodes[from.0 as usize].outs[from_port as usize].push(to);
    }

    pub fn set_imm(&mut self, node: NodeId, port: u16, value: Value) {
        self.nodes[node.0 as usize].ins[port as usize] = InKind::Imm(value);
    }
}

/// The first row where `flat` and `nested` disagree, if any.
pub(crate) fn diff(flat: &Dfg, nested: &[Node]) -> Result<(), String> {
    if flat.len() != nested.len() {
        return Err(format!("{} nodes, the reference has {}", flat.len(), nested.len()));
    }
    for (ni, (f, n)) in flat.nodes().zip(nested).enumerate() {
        let outs: Vec<&[PortRef]> = f.outs().iter().collect();
        let want: Vec<&[PortRef]> = n.outs.iter().map(Vec::as_slice).collect();
        if f.kind() != &n.kind
            || f.block() != n.block
            || f.ins() != n.ins
            || outs != want
            || f.label() != n.label
        {
            return Err(format!("n{ni}: {f:?}, the reference has {n:?}"));
        }
    }
    let edges = nested.iter().enumerate().flat_map(|(ni, n)| {
        n.outs.iter().enumerate().flat_map(move |(q, targets)| {
            targets.iter().map(move |t| Edge {
                from: NodeId(ni as u32),
                from_port: q as u16,
                to: t.node,
                to_port: t.port,
            })
        })
    });
    match flat.edges().zip(edges).position(|(a, b)| a != b) {
        Some(k) => Err(format!("edge {k} differs")),
        None if flat.edges().len() != nested.iter().flat_map(|n| &n.outs).map(Vec::len).sum() => {
            Err("edge counts differ".into())
        }
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use crate::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::{Operand, Program};
    use tyr_workloads::gen::Recipe;
    use tyr_workloads::{suite, Scale};

    /// A helper called from inside a loop and once after it: call-site
    /// linkage, dynamically-routed returns and an inlined ordered body.
    fn call_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut h = pb.func("helper", 2);
        let (a, b) = (h.param(0), h.param(1));
        let r = h.add(a, b);
        let hid = h.id();
        pb.define(h, [r]);
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, m] = f.begin_loop("l", [Operand::Const(0), Operand::Const(0), n]);
        let c = f.lt(i, m);
        f.begin_body(c);
        let r = f.call(hid, &[acc, i], 1);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, r[0], m], [acc]);
        let r2 = f.call(hid, &[out, n], 1);
        pb.finish(f, [r2[0]])
    }

    /// Every lowering of 500 generated programs, the tiny suite and a
    /// calling program goes through `GraphBuilder::finish`, which panics on
    /// the first row where the flat graph and the nested reference differ.
    #[test]
    fn flat_graph_matches_the_nested_reference() {
        let mut programs: Vec<Program> =
            (0..500).map(|s| Recipe::generate(s, 16).materialize().program).collect();
        programs.extend(suite(Scale::Tiny, 5).into_iter().map(|w| w.program));
        programs.push(call_program());
        let mut nodes = 0;
        for p in &programs {
            for d in [TaggingDiscipline::Tyr, TaggingDiscipline::UnorderedUnbounded] {
                nodes += lower_tagged(p, d).unwrap().len();
            }
            nodes += lower_ordered(p).unwrap().len();
        }
        assert!(nodes > 100_000, "the corpus built only {nodes} nodes");
    }
}
