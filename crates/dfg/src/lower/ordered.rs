//! Ordered-dataflow lowering (RipTide-style; Sec. II-C).
//!
//! No tags: instructions communicate through per-edge FIFO queues, which
//! serialize dynamic instances of the same instruction. Loop-carried values
//! flow through *controlled merges* ([`NodeKind::CMerge`]) whose control
//! FIFO is primed with one "take the initial value" token — after that, the
//! loop's own decider stream selects between backedge and (re-)entry.
//!
//! Function calls cannot share a body under FIFO synchronization (tokens
//! from interleaved callers would mix), so the program is inlined first —
//! exactly what CGRA compilers do.

use std::collections::HashMap;
use std::{fmt, iter};

use tyr_ir::inline::{inline_calls, is_call_free};
use tyr_ir::validate::validate;
use tyr_ir::{LoopStmt, Operand, Program, Region, Stmt, Value, Var};

use crate::graph::{BlockId, Dfg, GraphBuilder, InKind, NodeId, NodeKind, PortRef};
use crate::lower::util::{free_vars, operand_vars};
use crate::lower::LowerError;

/// Lowers a structured program into an untagged, FIFO-synchronized dataflow
/// graph. Calls are inlined automatically.
///
/// # Errors
///
/// Returns a [`LowerError`] if the program fails validation, a loop
/// condition folds to a constant, or the entry function returns nothing.
pub fn lower_ordered(program: &Program) -> Result<Dfg, LowerError> {
    validate(program)?;
    if program.entry_func().returns.is_empty() {
        return Err(LowerError::EntryReturnsNothing);
    }
    let inlined;
    let program = if is_call_free(program) {
        program
    } else {
        inlined = inline_calls(program);
        validate(&inlined)?;
        &inlined
    };

    let mut g = GraphBuilder::new();
    let block = g.add_block("main", None, false);
    let func = program.entry_func();
    let source = g.add_node(NodeKind::Source, block, [], func.params.len() + 1, "source");

    let mut lw = Ordered { g, block };
    let mut env: Env = HashMap::new();
    for (k, &p) in func.params.iter().enumerate() {
        env.insert(p, Src::Port(source, k as u16));
    }
    let trigger = Src::Port(source, func.params.len() as u16);

    lw.lower_region(&func.body, &mut env, &trigger)?;

    let ret_srcs: Vec<Src> = func
        .returns
        .iter()
        .map(|&r| {
            let s = lw.resolve(&env, r);
            lw.materialize(s, &trigger)
        })
        .collect();
    let sink = lw.g.add_node(
        NodeKind::Sink,
        lw.block,
        iter::repeat_n(InKind::Wire, ret_srcs.len()),
        0,
        "sink",
    );
    for (j, s) in ret_srcs.iter().enumerate() {
        lw.attach(s, PortRef { node: sink, port: j as u16 });
    }
    let dfg = lw.g.finish(source, sink, ret_srcs.len());
    dfg.check().map_err(|detail| LowerError::Malformed { detail })?;
    Ok(dfg)
}

#[derive(Debug, Clone, Copy)]
enum Src {
    Imm(Value),
    Port(NodeId, u16),
}

type Env = HashMap<Var, Src>;

struct Ordered {
    g: GraphBuilder,
    block: BlockId,
}

impl Ordered {
    fn attach(&mut self, s: &Src, to: PortRef) {
        match s {
            Src::Imm(_) => {}
            Src::Port(n, p) => self.g.connect(*n, *p, to),
        }
    }

    fn emit(
        &mut self,
        kind: NodeKind,
        inputs: &[Src],
        n_outs: usize,
        label: impl fmt::Display,
    ) -> NodeId {
        let ins = inputs.iter().map(|s| match s {
            Src::Imm(v) => InKind::Imm(*v),
            Src::Port(..) => InKind::Wire,
        });
        let id = self.g.add_node(kind, self.block, ins, n_outs, label);
        for (i, s) in inputs.iter().enumerate() {
            self.attach(s, PortRef { node: id, port: i as u16 });
        }
        id
    }

    fn resolve(&self, env: &Env, o: Operand) -> Src {
        match o {
            Operand::Const(c) => Src::Imm(c),
            Operand::Var(v) => *env.get(&v).unwrap_or_else(|| panic!("unbound {v}")),
        }
    }

    fn materialize(&mut self, s: Src, trigger: &Src) -> Src {
        match s {
            Src::Imm(v) => {
                let c = self.emit(NodeKind::Const(v), &[*trigger], 1, "const");
                Src::Port(c, 0)
            }
            p => p,
        }
    }

    fn lower_region(
        &mut self,
        region: &Region,
        env: &mut Env,
        trigger: &Src,
    ) -> Result<(), LowerError> {
        for stmt in &region.stmts {
            self.lower_stmt(stmt, env, trigger)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt, env: &mut Env, trigger: &Src) -> Result<(), LowerError> {
        match stmt {
            Stmt::Op { dst, op, lhs, rhs } => {
                let a = self.resolve(env, *lhs);
                let b = self.resolve(env, *rhs);
                if let (Src::Imm(x), Src::Imm(y)) = (a, b) {
                    let v = op.eval(x, y).map_err(LowerError::ConstFold)?;
                    env.insert(*dst, Src::Imm(v));
                } else {
                    let n = self.emit(
                        NodeKind::Alu(*op),
                        &[a, b],
                        1,
                        format_args!("{dst}={}", op.mnemonic()),
                    );
                    env.insert(*dst, Src::Port(n, 0));
                }
            }
            Stmt::Load { dst, addr } => {
                let a = self.resolve(env, *addr);
                let inputs: Vec<Src> =
                    if matches!(a, Src::Imm(_)) { vec![a, *trigger] } else { vec![a] };
                let n = self.emit(NodeKind::Load, &inputs, 1, format_args!("{dst}=load"));
                env.insert(*dst, Src::Port(n, 0));
            }
            Stmt::Store { addr, value } | Stmt::StoreAdd { addr, value } => {
                let a = self.resolve(env, *addr);
                let v = self.resolve(env, *value);
                let mut inputs = vec![a, v];
                if inputs.iter().all(|s| matches!(s, Src::Imm(_))) {
                    inputs.push(*trigger);
                }
                let kind = if matches!(stmt, Stmt::Store { .. }) {
                    NodeKind::Store
                } else {
                    NodeKind::StoreAdd
                };
                self.emit(kind, &inputs, 0, "store");
            }
            Stmt::Select { dst, cond, on_true, on_false } => {
                let c = self.resolve(env, *cond);
                let t = self.resolve(env, *on_true);
                let f = self.resolve(env, *on_false);
                if let Src::Imm(cv) = c {
                    env.insert(*dst, if cv != 0 { t } else { f });
                } else {
                    let n =
                        self.emit(NodeKind::Select, &[c, t, f], 1, format_args!("{dst}=select"));
                    env.insert(*dst, Src::Port(n, 0));
                }
            }
            Stmt::If(i) => {
                let c = self.resolve(env, i.cond);
                if let Src::Imm(cv) = c {
                    let taken = if cv != 0 { &i.then_region } else { &i.else_region };
                    let mut benv = env.clone();
                    self.lower_region(taken, &mut benv, trigger)?;
                    for &(d, t, e) in &i.merges {
                        let src = self.resolve(&benv, if cv != 0 { t } else { e });
                        env.insert(d, src);
                    }
                    return Ok(());
                }
                let anchor = self.emit(NodeKind::Steer, &[c, c], 2, "if.anchor");
                let mut steers: HashMap<Var, NodeId> = HashMap::new();
                let mut side_env = |lw: &mut Self,
                                    region: &Region,
                                    ops: Vec<Operand>,
                                    side: u16,
                                    env: &Env|
                 -> Env {
                    let mut uses: Vec<Var> =
                        free_vars(region).union(&operand_vars(ops.iter())).copied().collect();
                    uses.sort();
                    let mut out = Env::new();
                    for v in uses {
                        match env.get(&v) {
                            Some(Src::Imm(x)) => {
                                out.insert(v, Src::Imm(*x));
                            }
                            Some(src) => {
                                let s = *steers.entry(v).or_insert_with(|| {
                                    lw.emit(
                                        NodeKind::Steer,
                                        &[c, *src],
                                        2,
                                        format_args!("steer.{v}"),
                                    )
                                });
                                out.insert(v, Src::Port(s, side));
                            }
                            None => {}
                        }
                    }
                    out
                };
                let then_ops: Vec<Operand> = i.merges.iter().map(|&(_, t, _)| t).collect();
                let mut tenv = side_env(self, &i.then_region, then_ops, 0, env);
                let tt = Src::Port(anchor, 0);
                self.lower_region(&i.then_region, &mut tenv, &tt)?;
                let else_ops: Vec<Operand> = i.merges.iter().map(|&(_, _, e)| e).collect();
                let mut eenv = side_env(self, &i.else_region, else_ops, 1, env);
                let et = Src::Port(anchor, 1);
                self.lower_region(&i.else_region, &mut eenv, &et)?;
                for &(d, t, e) in &i.merges {
                    let ts = self.resolve(&tenv, t);
                    let ts = self.materialize(ts, &tt);
                    let es = self.resolve(&eenv, e);
                    let es = self.materialize(es, &et);
                    // Decider-controlled merge keeps FIFO order across
                    // activations (a free-running merge could reorder).
                    let m = self.emit(
                        NodeKind::CMerge { initial_ctl: vec![] },
                        &[c, es, ts],
                        1,
                        format_args!("{d}=cmerge"),
                    );
                    env.insert(d, Src::Port(m, 0));
                }
            }
            Stmt::Loop(l) => self.lower_loop(l, env, trigger)?,
            Stmt::Call { .. } => return Err(LowerError::OrderedNeedsInline),
        }
        Ok(())
    }

    fn lower_loop(&mut self, l: &LoopStmt, env: &mut Env, trigger: &Src) -> Result<(), LowerError> {
        // Controlled merges for the carried values. Control convention:
        // 0 = pop the init side (in1), non-zero = pop the backedge (in2).
        // The control FIFO is primed with a single 0 so the first entry takes
        // the inits; thereafter the loop's own decider stream drives it (the
        // final 0 of each execution primes the *next* entry).
        let mut cms = Vec::with_capacity(l.carried.len());
        let mut cenv: Env = HashMap::new();
        for (v, init) in &l.carried {
            let init_src = self.resolve(env, *init);
            // Constant inits must arrive as one-shot *tokens* (one per loop
            // entry): an immediate would be an infinite supply and the
            // leftover "take-init" control token would re-enter the loop
            // after it finishes.
            let init_src = self.materialize(init_src, trigger);
            let cm = self.g.add_node(
                NodeKind::CMerge { initial_ctl: vec![0] },
                self.block,
                [InKind::Wire; 3],
                1,
                format_args!("{}::carry.{v}", l.label),
            );
            match init_src {
                Src::Imm(_) => unreachable!("materialized"),
                Src::Port(n, p) => self.g.connect(n, p, PortRef { node: cm, port: 1 }),
            }
            cms.push(cm);
            cenv.insert(*v, Src::Port(cm, 0));
        }

        // Per-iteration prologue and test.
        let dummy_trigger = Src::Imm(0); // pre is pure; trigger is never used
        self.lower_region(&l.pre, &mut cenv, &dummy_trigger)?;
        let cond = self.resolve(&cenv, l.cond);
        let Src::Port(..) = cond else {
            return Err(LowerError::ConstLoopCond { label: l.label.clone() });
        };
        // Decider drives every carry merge's control FIFO.
        for &cm in &cms {
            self.attach(&cond, PortRef { node: cm, port: 0 });
        }
        // Anchor steer: per-taken-iteration trigger token.
        let anchor =
            self.emit(NodeKind::Steer, &[cond, cond], 2, format_args!("{}::anchor", l.label));
        let body_trigger = Src::Port(anchor, 0);

        // Steers route carried/pre values into the body or out to the exits.
        let mut steers: HashMap<Var, NodeId> = HashMap::new();
        let mut get_steer = |lw: &mut Self, v: Var, cenv: &Env| -> NodeId {
            *steers.entry(v).or_insert_with(|| {
                let src = *cenv.get(&v).expect("validated scope");
                lw.emit(NodeKind::Steer, &[cond, src], 2, format_args!("{}::steer.{v}", l.label))
            })
        };

        let mut body_uses: Vec<Var> =
            free_vars(&l.body).union(&operand_vars(l.next.iter())).copied().collect();
        body_uses.sort();
        let mut benv: Env = HashMap::new();
        for v in body_uses {
            match cenv.get(&v) {
                Some(Src::Imm(x)) => {
                    benv.insert(v, Src::Imm(*x));
                }
                Some(_) => {
                    let s = get_steer(self, v, &cenv);
                    benv.insert(v, Src::Port(s, 0));
                }
                None => {}
            }
        }
        self.lower_region(&l.body, &mut benv, &body_trigger)?;

        // Backedge: next values into the carry merges.
        for (k, &nxt) in l.next.iter().enumerate() {
            let s = self.resolve(&benv, nxt);
            match s {
                Src::Imm(v) => self.g.set_imm(cms[k], 2, v),
                Src::Port(n, p) => self.g.connect(n, p, PortRef { node: cms[k], port: 2 }),
            }
        }

        // Exits: the not-taken side of the steers.
        for &(d, src_op) in &l.exits {
            let s = match src_op {
                Operand::Const(c) => Src::Imm(c),
                Operand::Var(v) => match cenv.get(&v) {
                    Some(Src::Imm(x)) => Src::Imm(*x),
                    Some(_) => {
                        let st = get_steer(self, v, &cenv);
                        Src::Port(st, 1)
                    }
                    None => panic!("exit var {v} not in loop scope"),
                },
            };
            env.insert(d, s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind as NK;
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn loop_uses_controlled_merges() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, nn] = f.begin_loop("sum", [0.into(), 0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc2, nn], [acc]);
        let p = pb.finish(f, [total]);
        let dfg = lower_ordered(&p).unwrap();
        let cmerges = dfg.nodes().filter(|n| matches!(n.kind(), NK::CMerge { .. })).count();
        assert_eq!(cmerges, 3); // one per carried var
                                // No tag machinery at all.
        assert!(dfg.nodes().all(|n| !matches!(
            n.kind(),
            NK::Allocate { .. } | NK::NewTag | NK::Free { .. } | NK::ChangeTag | NK::ChangeTagDyn
        )));
        // CMerge control FIFOs are primed with exactly one token.
        for n in dfg.nodes() {
            if let NK::CMerge { initial_ctl } = n.kind() {
                assert_eq!(initial_ctl.len(), 1);
            }
        }
    }

    #[test]
    fn calls_are_inlined() {
        let mut pb = ProgramBuilder::new();
        let mut sq = pb.func("square", 1);
        let x = sq.param(0);
        let xx = sq.mul(x, x);
        let sq_id = sq.id();
        pb.define(sq, [xx]);
        let mut main = pb.func("main", 1);
        let a = main.param(0);
        let r = main.call(sq_id, &[a], 1);
        let p = pb.finish(main, [r[0]]);
        let dfg = lower_ordered(&p).unwrap();
        // Inlining leaves a plain mul + mov; exactly one block.
        assert_eq!(dfg.blocks.len(), 1);
        assert!(dfg.nodes().any(|n| matches!(n.kind(), NK::Alu(tyr_ir::AluOp::Mul))));
    }

    #[test]
    fn each_wire_input_has_exactly_one_producer() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, nn] = f.begin_loop("l", [0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [last] = f.end_loop([i2, nn], [i]);
        let p = pb.finish(f, [last]);
        let dfg = lower_ordered(&p).unwrap();
        let mut producer_count: HashMap<(u32, u16), usize> = HashMap::new();
        for n in dfg.nodes() {
            for targets in n.outs().iter() {
                for t in targets {
                    *producer_count.entry((t.node.0, t.port)).or_default() += 1;
                }
            }
        }
        for ((node, port), count) in producer_count {
            assert_eq!(
                count, 1,
                "ordered input n{node}.i{port} has {count} producers (FIFO order would break)"
            );
        }
    }
}
