//! Tagged-dataflow lowering: TYR's concurrent-block linkage (Fig. 10) and
//! the naïve unordered elaborations it is compared against (Fig. 7).
//!
//! Every loop and function body becomes a concurrent block with its own
//! local tag space. Loops get two transfer points (entry + backedge);
//! functions get one per call site, with dynamically-routed returns
//! (`changeTagDyn`), exactly as described in Sec. IV.
//!
//! In barrier-building disciplines ([`TaggingDiscipline::has_barriers`]),
//! the lowering also constructs, per block:
//!
//! * a *ready* `join` feeding each `allocate` (forward progress, Sec. IV-A);
//! * unconditional control outputs on `store`/`steer`/`changeTag`/
//!   `allocate`;
//! * per-iteration `join`s on the taken/not-taken sides of the loop test,
//!   merged into one unconditional completion token (the non-trivial
//!   free-barrier construction the paper calls out for conditional code);
//! * the block's completion `join` feeding `free`.

use std::collections::HashMap;
use std::{fmt, iter};

use tyr_ir::validate::validate;
use tyr_ir::{AluOp, FuncId, LoopStmt, Operand, Program, Region, Stmt, Value, Var};

use crate::graph::{AllocKind, BlockId, Dfg, GraphBuilder, InKind, NodeId, NodeKind, PortRef};
use crate::lower::util::{free_vars, operand_vars};
use crate::lower::{LowerError, TaggingDiscipline};

/// Lowers a structured program into a tagged dataflow graph.
///
/// # Errors
///
/// Returns a [`LowerError`] if the program fails validation, a loop
/// condition folds to a constant, or the entry function returns nothing.
pub fn lower_tagged(program: &Program, discipline: TaggingDiscipline) -> Result<Dfg, LowerError> {
    validate(program)?;
    if program.entry_func().returns.is_empty() {
        return Err(LowerError::EntryReturnsNothing);
    }
    let mut lw = Lowering {
        program,
        g: GraphBuilder::new(),
        barriers: discipline.has_barriers(),
        pending: Vec::new(),
        funcs: vec![None; program.funcs.len()],
        source: None,
        sink: None,
    };
    // Lower callees before callers (post-order over the call DAG), so call
    // sites can wire into the recorded consumer lists.
    let order = call_post_order(program);
    for fid in order {
        lw.lower_func(fid)?;
    }
    let source = lw.source.expect("entry lowered");
    let sink = lw.sink.expect("entry lowered");
    let dfg = lw.g.finish(source, sink, program.entry_func().returns.len());
    dfg.check().map_err(|detail| LowerError::Malformed { detail })?;
    Ok(dfg)
}

/// Post-order of the call DAG ending at the entry function; unreachable
/// functions are skipped.
fn call_post_order(program: &Program) -> Vec<FuncId> {
    fn callees(r: &Region, out: &mut Vec<FuncId>) {
        for s in &r.stmts {
            match s {
                Stmt::Call { func, .. } => out.push(*func),
                Stmt::Loop(l) => {
                    callees(&l.pre, out);
                    callees(&l.body, out);
                }
                Stmt::If(i) => {
                    callees(&i.then_region, out);
                    callees(&i.else_region, out);
                }
                _ => {}
            }
        }
    }
    fn dfs(program: &Program, f: FuncId, seen: &mut Vec<bool>, out: &mut Vec<FuncId>) {
        if seen[f.0 as usize] {
            return;
        }
        seen[f.0 as usize] = true;
        let mut cs = Vec::new();
        callees(&program.func(f).body, &mut cs);
        for c in cs {
            dfs(program, c, seen, out);
        }
        out.push(f);
    }
    let mut seen = vec![false; program.funcs.len()];
    let mut out = Vec::new();
    dfs(program, program.entry, &mut seen, &mut out);
    out
}

/// Where a value comes from during lowering.
#[derive(Debug, Clone)]
enum Src {
    /// An immediate (becomes an instruction immediate, not a token).
    Imm(Value),
    /// One or more producer output ports (several when a loop-carried value
    /// is fed by both the entry and backedge transfer points).
    Ports(Vec<(NodeId, u16)>),
    /// A consumer list to be wired later by call sites (function params,
    /// parent-tag and return-address tokens).
    Pending(usize),
}

fn ports(n: NodeId, p: u16) -> Src {
    Src::Ports(vec![(n, p)])
}

type Env = HashMap<Var, Src>;

/// Per-region lowering context.
#[derive(Clone)]
struct Ctx {
    /// The concurrent block nodes created here belong to.
    block: BlockId,
    /// A source producing exactly one token per context, used to trigger
    /// instructions with no data-token inputs (constant loads etc.).
    trigger: Src,
}

/// Record of a lowered function, consumed by its call sites.
#[derive(Debug, Clone)]
struct LoweredFunc {
    block: BlockId,
    /// Pending consumer lists for each parameter.
    params: Vec<usize>,
    /// Pending consumer list for the parent-tag token.
    ptag: usize,
    /// Pending consumer lists for each return-address token.
    retaddrs: Vec<usize>,
    /// Number of return tokens the callee sends (≥ 1; a synthetic
    /// completion token is added to functions that return nothing).
    n_rets: usize,
    /// Number of *declared* IR returns.
    n_decl_rets: usize,
}

struct Lowering<'p> {
    program: &'p Program,
    g: GraphBuilder,
    barriers: bool,
    pending: Vec<Vec<PortRef>>,
    funcs: Vec<Option<LoweredFunc>>,
    source: Option<NodeId>,
    sink: Option<NodeId>,
}

impl<'p> Lowering<'p> {
    fn new_pending(&mut self) -> usize {
        self.pending.push(Vec::new());
        self.pending.len() - 1
    }

    fn attach(&mut self, s: &Src, to: PortRef) {
        match s {
            Src::Imm(_) => {}
            Src::Ports(ps) => {
                for &(n, p) in ps {
                    self.g.connect(n, p, to);
                }
            }
            Src::Pending(i) => self.pending[*i].push(to),
        }
    }

    /// Connects a producer port to every recorded consumer of a pending list.
    fn connect_pending(&mut self, from: NodeId, port: u16, pending: usize) {
        let targets = self.pending[pending].clone();
        for t in targets {
            self.g.connect(from, port, t);
        }
    }

    fn emit(
        &mut self,
        kind: NodeKind,
        block: BlockId,
        inputs: &[Src],
        n_outs: usize,
        label: impl fmt::Display,
    ) -> NodeId {
        let ins = inputs.iter().map(|s| match s {
            Src::Imm(v) => InKind::Imm(*v),
            _ => InKind::Wire,
        });
        let id = self.g.add_node(kind, block, ins, n_outs, label);
        for (i, s) in inputs.iter().enumerate() {
            self.attach(s, PortRef { node: id, port: i as u16 });
        }
        id
    }

    fn resolve(&self, env: &Env, o: Operand) -> Src {
        match o {
            Operand::Const(c) => Src::Imm(c),
            Operand::Var(v) => {
                env.get(&v).unwrap_or_else(|| panic!("unbound {v} (validated program?)")).clone()
            }
        }
    }

    /// Turns an immediate into a token via a `Const` node triggered once per
    /// context; passes port sources through unchanged.
    fn materialize(&mut self, s: Src, ctx: &Ctx, label: &str) -> Src {
        match s {
            Src::Imm(v) => {
                let c = self.emit(
                    NodeKind::Const(v),
                    ctx.block,
                    std::slice::from_ref(&ctx.trigger),
                    1,
                    label,
                );
                ports(c, 0)
            }
            other => other,
        }
    }

    fn ct_outs(&self) -> usize {
        if self.barriers {
            2
        } else {
            1
        }
    }

    fn steer_outs(&self) -> usize {
        if self.barriers {
            3
        } else {
            2
        }
    }

    fn lower_func(&mut self, fid: FuncId) -> Result<(), LowerError> {
        let func = self.program.func(fid);
        let is_root = fid == self.program.entry;
        let block = self.g.add_block(&func.name, None, false);
        let mut env: Env = HashMap::new();
        let mut ctl: Vec<(NodeId, u16)> = Vec::new();

        let (ctx, params_p, ptag_p, retaddrs_p);
        let n_rets = func.returns.len().max(1);
        if is_root {
            let src = self.g.add_node(NodeKind::Source, block, [], func.params.len() + 1, "source");
            self.source = Some(src);
            for (k, &p) in func.params.iter().enumerate() {
                env.insert(p, ports(src, k as u16));
            }
            ctx = Ctx { block, trigger: ports(src, func.params.len() as u16) };
            params_p = Vec::new();
            ptag_p = usize::MAX;
            retaddrs_p = Vec::new();
        } else {
            params_p = func.params.iter().map(|_| self.new_pending()).collect::<Vec<_>>();
            for (k, &p) in func.params.iter().enumerate() {
                env.insert(p, Src::Pending(params_p[k]));
            }
            ptag_p = self.new_pending();
            retaddrs_p = (0..n_rets).map(|_| self.new_pending()).collect::<Vec<_>>();
            ctx = Ctx { block, trigger: Src::Pending(ptag_p) };
        }

        self.lower_region(&func.body, &mut env, &ctx, &mut ctl)?;

        if is_root {
            let ret_srcs: Vec<Src> = func
                .returns
                .iter()
                .map(|&r| {
                    let s = self.resolve(&env, r);
                    self.materialize(s, &ctx, "ret.const")
                })
                .collect();
            let has_bar = self.barriers && !ctl.is_empty();
            let n_sink = ret_srcs.len() + usize::from(has_bar);
            let sink = self.g.add_node(
                NodeKind::Sink,
                block,
                iter::repeat_n(InKind::Wire, n_sink),
                0,
                "sink",
            );
            self.sink = Some(sink);
            for (j, s) in ret_srcs.iter().enumerate() {
                self.attach(s, PortRef { node: sink, port: j as u16 });
            }
            if has_bar {
                // The barrier must cover the data path as well as the control
                // path: control-completion signals fire when steers commit,
                // which can be cycles before the ALU chain feeding the sink
                // has drained. Joining the return sources too orders
                // `root.free` after the block's last live token.
                let mut sig: Vec<Src> = ctl.iter().map(|&(n, p)| ports(n, p)).collect();
                sig.extend(ret_srcs.iter().cloned());
                let bar = self.emit(NodeKind::Join, block, &sig, 1, "root.barrier");
                self.g.connect(bar, 0, PortRef { node: sink, port: ret_srcs.len() as u16 });
                self.emit(NodeKind::Free { space: block }, block, &[ports(bar, 0)], 0, "root.free");
            }
        } else {
            // Return transfer point: one dynamically-routed changeTag per
            // return value (plus a synthetic completion token for void
            // functions).
            let rets: Vec<Operand> = if func.returns.is_empty() {
                vec![Operand::Const(0)]
            } else {
                func.returns.clone()
            };
            let dyn_outs = if self.barriers { 2 } else { 1 };
            for (j, &r) in rets.iter().enumerate() {
                let s = self.resolve(&env, r);
                let ct = self.emit(
                    NodeKind::ChangeTagDyn,
                    block,
                    &[Src::Pending(ptag_p), Src::Pending(retaddrs_p[j]), s],
                    dyn_outs,
                    format_args!("{}::ret{j}", func.name),
                );
                if self.barriers {
                    ctl.push((ct, 1));
                }
            }
            if self.barriers {
                let bar = self.join_over(&ctl, block, format_args!("{}::barrier", func.name));
                self.emit(
                    NodeKind::Free { space: block },
                    block,
                    &[ports(bar, 0)],
                    0,
                    format_args!("{}::free", func.name),
                );
            }
        }

        self.funcs[fid.0 as usize] = Some(LoweredFunc {
            block,
            params: params_p,
            ptag: ptag_p,
            retaddrs: retaddrs_p,
            n_rets,
            n_decl_rets: func.returns.len(),
        });
        Ok(())
    }

    /// Builds a `join` over a list of control ports.
    fn join_over(
        &mut self,
        ctl: &[(NodeId, u16)],
        block: BlockId,
        label: impl fmt::Display,
    ) -> NodeId {
        assert!(!ctl.is_empty(), "barrier join needs at least one input");
        let srcs: Vec<Src> = ctl.iter().map(|&(n, p)| ports(n, p)).collect();
        self.emit(NodeKind::Join, block, &srcs, 1, label)
    }

    fn lower_region(
        &mut self,
        region: &Region,
        env: &mut Env,
        ctx: &Ctx,
        ctl: &mut Vec<(NodeId, u16)>,
    ) -> Result<(), LowerError> {
        for stmt in &region.stmts {
            self.lower_stmt(stmt, env, ctx, ctl)?;
        }
        Ok(())
    }

    fn lower_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut Env,
        ctx: &Ctx,
        ctl: &mut Vec<(NodeId, u16)>,
    ) -> Result<(), LowerError> {
        match stmt {
            Stmt::Op { dst, op, lhs, rhs } => {
                let a = self.resolve(env, *lhs);
                let b = self.resolve(env, *rhs);
                if let (Src::Imm(x), Src::Imm(y)) = (&a, &b) {
                    // Constant fold: immediates never become tokens.
                    let v = op.eval(*x, *y).map_err(LowerError::ConstFold)?;
                    env.insert(*dst, Src::Imm(v));
                } else {
                    let n = self.emit(
                        NodeKind::Alu(*op),
                        ctx.block,
                        &[a, b],
                        1,
                        format_args!("{dst}={}", op.mnemonic()),
                    );
                    env.insert(*dst, ports(n, 0));
                }
            }
            Stmt::Load { dst, addr } => {
                let a = self.resolve(env, *addr);
                let inputs: Vec<Src> =
                    if matches!(a, Src::Imm(_)) { vec![a, ctx.trigger.clone()] } else { vec![a] };
                let n =
                    self.emit(NodeKind::Load, ctx.block, &inputs, 1, format_args!("{dst}=load"));
                env.insert(*dst, ports(n, 0));
            }
            Stmt::Store { addr, value } | Stmt::StoreAdd { addr, value } => {
                let a = self.resolve(env, *addr);
                let v = self.resolve(env, *value);
                let mut inputs = vec![a, v];
                if inputs.iter().all(|s| matches!(s, Src::Imm(_))) {
                    inputs.push(ctx.trigger.clone());
                }
                let kind = if matches!(stmt, Stmt::Store { .. }) {
                    NodeKind::Store
                } else {
                    NodeKind::StoreAdd
                };
                let n_outs = usize::from(self.barriers);
                let n = self.emit(kind, ctx.block, &inputs, n_outs, "store");
                if self.barriers {
                    ctl.push((n, 0));
                }
            }
            Stmt::Select { dst, cond, on_true, on_false } => {
                let c = self.resolve(env, *cond);
                let t = self.resolve(env, *on_true);
                let f = self.resolve(env, *on_false);
                if let Src::Imm(cv) = c {
                    env.insert(*dst, if cv != 0 { t } else { f });
                } else {
                    let n = self.emit(
                        NodeKind::Select,
                        ctx.block,
                        &[c, t, f],
                        1,
                        format_args!("{dst}=select"),
                    );
                    env.insert(*dst, ports(n, 0));
                }
            }
            Stmt::If(i) => self.lower_if(i, env, ctx, ctl)?,
            Stmt::Loop(l) => self.lower_loop(l, env, ctx, ctl)?,
            Stmt::Call { func, args, rets } => self.lower_call(*func, args, rets, env, ctx, ctl)?,
        }
        Ok(())
    }

    /// Steer-based conditional lowering. A self-steer of the condition
    /// anchors each side so per-side completion joins are never empty and
    /// branch-local constants have a trigger.
    fn lower_if(
        &mut self,
        i: &tyr_ir::IfStmt,
        env: &mut Env,
        ctx: &Ctx,
        ctl: &mut Vec<(NodeId, u16)>,
    ) -> Result<(), LowerError> {
        let c = self.resolve(env, i.cond);
        if let Src::Imm(cv) = c {
            // Constant condition: splice the taken side in directly.
            let taken = if cv != 0 { &i.then_region } else { &i.else_region };
            let mut benv = env.clone();
            self.lower_region(taken, &mut benv, ctx, ctl)?;
            for &(d, t, e) in &i.merges {
                let src = self.resolve(&benv, if cv != 0 { t } else { e });
                env.insert(d, src);
            }
            return Ok(());
        }

        let anchor = self.emit(
            NodeKind::Steer,
            ctx.block,
            &[c.clone(), c.clone()],
            self.steer_outs(),
            "if.anchor",
        );
        if self.barriers {
            ctl.push((anchor, 2));
        }

        let mut steers: HashMap<Var, NodeId> = HashMap::new();
        let mut steer_for = |lw: &mut Self, v: Var, env: &Env| -> NodeId {
            if let Some(&s) = steers.get(&v) {
                return s;
            }
            let src = env.get(&v).expect("validated scope").clone();
            let s = lw.emit(
                NodeKind::Steer,
                ctx.block,
                &[c.clone(), src],
                lw.steer_outs(),
                format_args!("steer.{v}"),
            );
            steers.insert(v, s);
            s
        };

        let build_env = |lw: &mut Self,
                         steers: &mut dyn FnMut(&mut Self, Var, &Env) -> NodeId,
                         region: &Region,
                         merge_ops: Vec<Operand>,
                         side: u16,
                         env: &Env|
         -> Env {
            let mut uses: Vec<Var> =
                free_vars(region).union(&operand_vars(merge_ops.iter())).copied().collect();
            uses.sort();
            let mut benv = Env::new();
            for v in uses {
                match env.get(&v) {
                    Some(Src::Imm(x)) => {
                        benv.insert(v, Src::Imm(*x));
                    }
                    Some(_) => {
                        let s = steers(lw, v, env);
                        benv.insert(v, ports(s, side));
                    }
                    None => {} // defined inside the region itself
                }
            }
            benv
        };

        // Then side (steer output 0).
        let then_ops: Vec<Operand> = i.merges.iter().map(|&(_, t, _)| t).collect();
        let mut then_env = build_env(self, &mut steer_for, &i.then_region, then_ops, 0, env);
        let then_ctx = Ctx { block: ctx.block, trigger: ports(anchor, 0) };
        let mut then_ctl = vec![(anchor, 0)];
        self.lower_region(&i.then_region, &mut then_env, &then_ctx, &mut then_ctl)?;

        // Else side (steer output 1).
        let else_ops: Vec<Operand> = i.merges.iter().map(|&(_, _, e)| e).collect();
        let mut else_env = build_env(self, &mut steer_for, &i.else_region, else_ops, 1, env);
        let else_ctx = Ctx { block: ctx.block, trigger: ports(anchor, 1) };
        let mut else_ctl = vec![(anchor, 1)];
        self.lower_region(&i.else_region, &mut else_env, &else_ctx, &mut else_ctl)?;

        for &(d, t, e) in &i.merges {
            let ts = self.resolve(&then_env, t);
            let ts = self.materialize(ts, &then_ctx, "merge.const");
            let es = self.resolve(&else_env, e);
            let es = self.materialize(es, &else_ctx, "merge.const");
            let m = self.emit(NodeKind::Merge, ctx.block, &[ts, es], 1, format_args!("{d}=merge"));
            env.insert(d, ports(m, 0));
        }

        if self.barriers {
            let tj = self.join_over(&then_ctl, ctx.block, "if.then.done");
            let ej = self.join_over(&else_ctl, ctx.block, "if.else.done");
            let done =
                self.emit(NodeKind::Merge, ctx.block, &[ports(tj, 0), ports(ej, 0)], 1, "if.done");
            ctl.push((done, 0));
        }
        Ok(())
    }

    /// Loop lowering: two transfer points (entry + backedge) into a fresh
    /// concurrent block, exit changeTags restoring the parent tag, and the
    /// per-iteration barrier machinery.
    fn lower_loop(
        &mut self,
        l: &LoopStmt,
        env: &mut Env,
        ctx: &Ctx,
        ctl: &mut Vec<(NodeId, u16)>,
    ) -> Result<(), LowerError> {
        let child = self.g.add_block(&l.label, Some(ctx.block), true);
        let ct_outs = self.ct_outs();

        // --- Entry transfer point (nodes in the parent block) ---
        let inits: Vec<Src> = l.carried.iter().map(|&(_, init)| self.resolve(env, init)).collect();
        let wired: Vec<Src> = inits.iter().filter(|s| !matches!(s, Src::Imm(_))).cloned().collect();
        let request = wired.first().cloned().unwrap_or_else(|| ctx.trigger.clone());

        let al = if self.barriers {
            let ready_srcs: Vec<Src> =
                if wired.is_empty() { vec![ctx.trigger.clone()] } else { wired.clone() };
            let rj = self.emit(
                NodeKind::Join,
                ctx.block,
                &ready_srcs,
                1,
                format_args!("{}::entry.ready", l.label),
            );
            let al = self.emit(
                NodeKind::Allocate { space: child, kind: AllocKind::External },
                ctx.block,
                &[request, ports(rj, 0)],
                2,
                format_args!("{}::alloc.entry", l.label),
            );
            ctl.push((al, 1));
            al
        } else {
            self.emit(
                NodeKind::NewTag,
                ctx.block,
                &[request],
                1,
                format_args!("{}::newtag.entry", l.label),
            )
        };
        let newtag = ports(al, 0);
        let xt = self.emit(
            NodeKind::ExtractTag,
            ctx.block,
            std::slice::from_ref(&newtag),
            1,
            format_args!("{}::xt", l.label),
        );

        let mut entry_ct = Vec::with_capacity(inits.len());
        for ((v, _), init) in l.carried.iter().zip(&inits) {
            let n = self.emit(
                NodeKind::ChangeTag,
                ctx.block,
                &[newtag.clone(), init.clone()],
                ct_outs,
                format_args!("{}::ct.{v}", l.label),
            );
            if self.barriers {
                ctl.push((n, 1));
            }
            entry_ct.push(n);
        }
        let ct_ptag = self.emit(
            NodeKind::ChangeTag,
            ctx.block,
            &[newtag.clone(), ports(xt, 0)],
            ct_outs,
            format_args!("{}::ct.ptag", l.label),
        );
        if self.barriers {
            ctl.push((ct_ptag, 1));
        }

        // --- Backedge transfer point (created up-front, wired later) ---
        let al_tail = if self.barriers {
            self.g.add_node(
                NodeKind::Allocate { space: child, kind: AllocKind::Tail },
                child,
                [InKind::Wire; 2],
                2,
                format_args!("{}::alloc.tail", l.label),
            )
        } else {
            self.g.add_node(
                NodeKind::NewTag,
                child,
                [InKind::Wire],
                1,
                format_args!("{}::newtag.tail", l.label),
            )
        };
        let backtag = ports(al_tail, 0);
        let mut back_ct = Vec::with_capacity(l.carried.len());
        for (v, _) in &l.carried {
            let n = self.g.add_node(
                NodeKind::ChangeTag,
                child,
                [InKind::Wire; 2],
                ct_outs,
                format_args!("{}::ct.back.{v}", l.label),
            );
            self.attach(&backtag, PortRef { node: n, port: 0 });
            back_ct.push(n);
        }
        let back_ct_ptag = self.g.add_node(
            NodeKind::ChangeTag,
            child,
            [InKind::Wire; 2],
            ct_outs,
            format_args!("{}::ct.back.ptag", l.label),
        );
        self.attach(&backtag, PortRef { node: back_ct_ptag, port: 0 });

        // --- Child environment: carried values come from both transfer points ---
        let mut cenv: Env = HashMap::new();
        for (k, (v, _)) in l.carried.iter().enumerate() {
            cenv.insert(*v, Src::Ports(vec![(entry_ct[k], 0), (back_ct[k], 0)]));
        }
        let ptag_src = Src::Ports(vec![(ct_ptag, 0), (back_ct_ptag, 0)]);

        let mut child_ctl: Vec<(NodeId, u16)> = Vec::new();

        // --- Pre region (pure; runs every iteration including the final test) ---
        let pre_ctx = Ctx { block: child, trigger: ptag_src.clone() };
        self.lower_region(&l.pre, &mut cenv, &pre_ctx, &mut child_ctl)?;
        let cond = self.resolve(&cenv, l.cond);
        if matches!(cond, Src::Imm(_)) {
            return Err(LowerError::ConstLoopCond { label: l.label.clone() });
        }

        // --- Steers: route carried/pre values into the body (taken) or to
        //     the exits (not taken) ---
        let steer_outs = self.steer_outs();
        let mut steer_map: HashMap<Var, NodeId> = HashMap::new();
        let steer_ptag = self.emit(
            NodeKind::Steer,
            child,
            &[cond.clone(), ptag_src.clone()],
            steer_outs,
            format_args!("{}::steer.ptag", l.label),
        );
        if self.barriers {
            child_ctl.push((steer_ptag, 2));
        }

        let mut get_steer =
            |lw: &mut Self, v: Var, cenv: &Env, child_ctl: &mut Vec<(NodeId, u16)>| -> NodeId {
                if let Some(&s) = steer_map.get(&v) {
                    return s;
                }
                let src = cenv.get(&v).expect("validated scope").clone();
                let s = lw.emit(
                    NodeKind::Steer,
                    child,
                    &[cond.clone(), src],
                    steer_outs,
                    format_args!("{}::steer.{v}", l.label),
                );
                if lw.barriers {
                    child_ctl.push((s, 2));
                }
                steer_map.insert(v, s);
                s
            };

        // --- Body (conditional on the test) ---
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
                    let s = get_steer(self, v, &cenv, &mut child_ctl);
                    benv.insert(v, ports(s, 0));
                }
                None => {}
            }
        }
        let body_ctx = Ctx { block: child, trigger: ports(steer_ptag, 0) };
        let mut true_ctl: Vec<(NodeId, u16)> = Vec::new();
        self.lower_region(&l.body, &mut benv, &body_ctx, &mut true_ctl)?;

        // --- Wire the backedge transfer point ---
        let mut wired_next: Vec<Src> = Vec::new();
        for (k, &nxt) in l.next.iter().enumerate() {
            let s = self.resolve(&benv, nxt);
            match &s {
                Src::Imm(v) => self.g.set_imm(back_ct[k], 1, *v),
                _ => {
                    self.attach(&s, PortRef { node: back_ct[k], port: 1 });
                    wired_next.push(s);
                }
            }
        }
        let ptag_true = ports(steer_ptag, 0);
        self.attach(&ptag_true, PortRef { node: back_ct_ptag, port: 1 });
        let tail_request = wired_next.first().cloned().unwrap_or_else(|| ptag_true.clone());
        self.attach(&tail_request, PortRef { node: al_tail, port: 0 });
        if self.barriers {
            let mut ready = wired_next.clone();
            ready.push(ptag_true.clone());
            let rj = self.emit(
                NodeKind::Join,
                child,
                &ready,
                1,
                format_args!("{}::backedge.ready", l.label),
            );
            self.g.connect(rj, 0, PortRef { node: al_tail, port: 1 });
            true_ctl.push((al_tail, 1));
            for &n in back_ct.iter().chain([&back_ct_ptag]) {
                true_ctl.push((n, 1));
            }
        }

        // --- Exit transfer point (not-taken side) ---
        let ptag_false = ports(steer_ptag, 1);
        let mut false_ctl: Vec<(NodeId, u16)> = Vec::new();
        let lower_exit = |lw: &mut Self,
                          src: Src,
                          dst: Option<Var>,
                          env: &mut Env,
                          ctl: &mut Vec<(NodeId, u16)>,
                          false_ctl: &mut Vec<(NodeId, u16)>,
                          j: usize| {
            let ct = lw.emit(
                NodeKind::ChangeTag,
                child,
                &[ptag_false.clone(), src],
                ct_outs,
                format_args!("{}::ct.exit{j}", l.label),
            );
            if lw.barriers {
                false_ctl.push((ct, 1));
                // The parent's barrier must wait for the loop to finish.
                ctl.push((ct, 0));
            }
            if let Some(d) = dst {
                env.insert(d, ports(ct, 0));
            }
        };
        if l.exits.is_empty() {
            lower_exit(self, Src::Imm(0), None, env, ctl, &mut false_ctl, 0);
        } else {
            for (j, &(d, src_op)) in l.exits.iter().enumerate() {
                let s = match src_op {
                    Operand::Const(c) => Src::Imm(c),
                    Operand::Var(v) => match cenv.get(&v) {
                        Some(Src::Imm(x)) => Src::Imm(*x),
                        Some(_) => {
                            let st = get_steer(self, v, &cenv, &mut child_ctl);
                            ports(st, 1)
                        }
                        None => panic!("exit var {v} not in loop scope (validated program?)"),
                    },
                };
                lower_exit(self, s, Some(d), env, ctl, &mut false_ctl, j);
            }
        }

        // --- Per-iteration completion and the block barrier ---
        if self.barriers {
            let tj = self.join_over(&true_ctl, child, format_args!("{}::iter.taken", l.label));
            let fj = self.join_over(&false_ctl, child, format_args!("{}::iter.exit", l.label));
            let done = self.emit(
                NodeKind::Merge,
                child,
                &[ports(tj, 0), ports(fj, 0)],
                1,
                format_args!("{}::iter.done", l.label),
            );
            child_ctl.push((done, 0));
            let bar = self.join_over(&child_ctl, child, format_args!("{}::barrier", l.label));
            self.emit(
                NodeKind::Free { space: child },
                child,
                &[ports(bar, 0)],
                0,
                format_args!("{}::free", l.label),
            );
        }
        Ok(())
    }

    /// Call-site transfer point: allocate in the callee's space, changeTag
    /// the arguments, parent tag, and return addresses in; land the
    /// dynamically-routed return tokens.
    fn lower_call(
        &mut self,
        func: FuncId,
        args: &[Operand],
        rets: &[Var],
        env: &mut Env,
        ctx: &Ctx,
        ctl: &mut Vec<(NodeId, u16)>,
    ) -> Result<(), LowerError> {
        let lf = self.funcs[func.0 as usize].clone().expect("callee lowered before caller");
        let name = &self.program.func(func).name;
        let ct_outs = self.ct_outs();

        let argv: Vec<Src> = args.iter().map(|&a| self.resolve(env, a)).collect();
        let wired: Vec<Src> = argv.iter().filter(|s| !matches!(s, Src::Imm(_))).cloned().collect();
        let request = wired.first().cloned().unwrap_or_else(|| ctx.trigger.clone());

        let al = if self.barriers {
            let ready_srcs: Vec<Src> =
                if wired.is_empty() { vec![ctx.trigger.clone()] } else { wired.clone() };
            let rj = self.emit(
                NodeKind::Join,
                ctx.block,
                &ready_srcs,
                1,
                format_args!("call.{name}.ready"),
            );
            let al = self.emit(
                NodeKind::Allocate { space: lf.block, kind: AllocKind::Call },
                ctx.block,
                &[request, ports(rj, 0)],
                2,
                format_args!("call.{name}.alloc"),
            );
            ctl.push((al, 1));
            al
        } else {
            self.emit(
                NodeKind::NewTag,
                ctx.block,
                &[request],
                1,
                format_args!("call.{name}.newtag"),
            )
        };
        let newtag = ports(al, 0);
        let xt = self.emit(
            NodeKind::ExtractTag,
            ctx.block,
            std::slice::from_ref(&newtag),
            1,
            format_args!("call.{name}.xt"),
        );

        // Arguments.
        for (k, a) in argv.iter().enumerate() {
            let ct = self.emit(
                NodeKind::ChangeTag,
                ctx.block,
                &[newtag.clone(), a.clone()],
                ct_outs,
                format_args!("call.{name}.arg{k}"),
            );
            if self.barriers {
                ctl.push((ct, 1));
            }
            self.connect_pending(ct, 0, lf.params[k]);
        }
        // Parent tag.
        let ct_ptag = self.emit(
            NodeKind::ChangeTag,
            ctx.block,
            &[newtag.clone(), ports(xt, 0)],
            ct_outs,
            format_args!("call.{name}.ptag"),
        );
        if self.barriers {
            ctl.push((ct_ptag, 1));
        }
        self.connect_pending(ct_ptag, 0, lf.ptag);

        // Return landings + return addresses.
        for j in 0..lf.n_rets {
            let land = self.g.add_node(
                NodeKind::Alu(AluOp::Mov),
                ctx.block,
                [InKind::Wire],
                1,
                format_args!("call.{name}.ret{j}"),
            );
            let target = PortRef { node: land, port: 0 };
            let ct = self.emit(
                NodeKind::ChangeTag,
                ctx.block,
                &[newtag.clone(), Src::Imm(target.encode())],
                ct_outs,
                format_args!("call.{name}.retaddr{j}"),
            );
            if self.barriers {
                ctl.push((ct, 1));
                // Parent barrier waits for the callee to return.
                ctl.push((land, 0));
            }
            self.connect_pending(ct, 0, lf.retaddrs[j]);
            if j < lf.n_decl_rets {
                if let Some(&d) = rets.get(j) {
                    env.insert(d, ports(land, 0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind as NK;
    use tyr_ir::build::ProgramBuilder;

    fn count_loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, nn] = f.begin_loop("sum", [0.into(), 0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc2, nn], [acc]);
        pb.finish(f, [total])
    }

    fn kind_count(dfg: &Dfg, pred: impl Fn(&NK) -> bool) -> usize {
        dfg.nodes().filter(|n| pred(n.kind())).count()
    }

    #[test]
    fn tyr_lowering_builds_linkage() {
        let p = count_loop_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        // Two blocks: main + the loop.
        assert_eq!(dfg.blocks.len(), 2);
        // Two allocates: entry (external) and backedge (tail).
        assert_eq!(
            kind_count(&dfg, |k| matches!(k, NK::Allocate { kind: AllocKind::External, .. })),
            1
        );
        assert_eq!(
            kind_count(&dfg, |k| matches!(k, NK::Allocate { kind: AllocKind::Tail, .. })),
            1
        );
        // One free per block... the root block may skip its barrier if empty.
        assert!(kind_count(&dfg, |k| matches!(k, NK::Free { .. })) >= 1);
        // No unbounded tag generators in TYR mode.
        assert_eq!(kind_count(&dfg, |k| matches!(k, NK::NewTag)), 0);
        // ExtractTag for the parent tag.
        assert!(kind_count(&dfg, |k| matches!(k, NK::ExtractTag)) >= 1);
    }

    #[test]
    fn unbounded_lowering_has_no_barriers() {
        let p = count_loop_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedUnbounded).unwrap();
        assert_eq!(kind_count(&dfg, |k| matches!(k, NK::Allocate { .. })), 0);
        assert_eq!(kind_count(&dfg, |k| matches!(k, NK::Free { .. })), 0);
        assert_eq!(kind_count(&dfg, |k| matches!(k, NK::Join)), 0);
        assert_eq!(kind_count(&dfg, |k| matches!(k, NK::NewTag)), 2); // entry + backedge
    }

    #[test]
    fn bounded_graph_matches_tyr_graph_shape() {
        let p = count_loop_program();
        let a = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let b = lower_tagged(&p, TaggingDiscipline::UnorderedBounded).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn entry_must_return() {
        let mut pb = ProgramBuilder::new();
        let f = pb.func("main", 0);
        let p = pb.finish(f, tyr_ir::NO_OPERANDS);
        assert!(matches!(
            lower_tagged(&p, TaggingDiscipline::Tyr),
            Err(LowerError::EntryReturnsNothing)
        ));
    }

    #[test]
    fn const_loop_cond_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("forever", [0]);
        let c = f.lt(0, 1); // folds to 1
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        let p = pb.finish(f, [out]);
        assert!(matches!(
            lower_tagged(&p, TaggingDiscipline::Tyr),
            Err(LowerError::ConstLoopCond { .. })
        ));
    }

    #[test]
    fn call_lowering_lands_returns() {
        let mut pb = ProgramBuilder::new();
        let mut sq = pb.func("square", 1);
        let x = sq.param(0);
        let xx = sq.mul(x, x);
        let sq_id = sq.id();
        pb.define(sq, [xx]);
        let mut main = pb.func("main", 1);
        let a = main.param(0);
        let r1 = main.call(sq_id, &[a], 1);
        let r2 = main.call(sq_id, &[r1[0]], 1);
        let p = pb.finish(main, [r2[0]]);

        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        // Two call allocates into the callee's space.
        assert_eq!(
            kind_count(&dfg, |k| matches!(k, NK::Allocate { kind: AllocKind::Call, .. })),
            2
        );
        // One dynamic-return changeTag in the callee.
        assert_eq!(kind_count(&dfg, |k| matches!(k, NK::ChangeTagDyn)), 1);
        // The callee block is shared: exactly 2 blocks.
        assert_eq!(dfg.blocks.len(), 2);
    }

    #[test]
    fn every_wire_targets_a_wire_input() {
        // Structural sanity on a nested program: every edge must point at a
        // Wire input port that exists.
        let p = count_loop_program();
        for d in [TaggingDiscipline::Tyr, TaggingDiscipline::UnorderedUnbounded] {
            let dfg = lower_tagged(&p, d).unwrap();
            for n in dfg.nodes() {
                for targets in n.outs().iter() {
                    for t in targets {
                        let dst = dfg.node(t.node);
                        assert!(matches!(dst.ins()[t.port as usize], InKind::Wire));
                    }
                }
            }
        }
    }
}
