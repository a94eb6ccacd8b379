//! Differential check of `validate` against the scope-copying validator it
//! replaced, kept here as the reference: every region cloned its entry
//! scope into a fresh `Vec`, each use was a linear `contains` scan, and
//! definitions and loop labels lived in `HashSet`s. The linear-time
//! validator must return the same `Result` — the same error variant with
//! the same fields, hence the same *first* violation — on every program.
//!
//! Corpus: 500 generated programs, the seven tiny suite kernels and a
//! program with calls, each as built and under a set of mutations: an
//! operand retargeted to an undefined, an out-of-range or another defined
//! variable, a duplicated definition, colliding loop labels, a call or loop
//! moved into an `if` arm, broken call arities, an exit reading a body
//! variable, and a merge reading the other arm's definition.

use std::collections::HashSet;

use tyr_ir::build::ProgramBuilder;
use tyr_ir::validate::{validate, ValidateError};
use tyr_ir::{FuncId, Function, IfStmt, LoopStmt, Operand, Program, Region, Stmt, Var};
use tyr_workloads::gen::Recipe;
use tyr_workloads::{suite, Scale};

const RECIPES: u64 = 500;
const RECIPE_SIZE: usize = 16;

mod reference {
    //! The validator as it stood before the scope stack, verbatim but for
    //! the imports.

    use super::*;

    pub fn validate(program: &Program) -> Result<(), ValidateError> {
        check_call_graph(program)?;
        let mut labels = HashSet::new();
        for func in &program.funcs {
            let mut v = Validator {
                program,
                func_name: &func.name,
                n_vars: func.n_vars,
                defined: HashSet::new(),
                labels: &mut labels,
            };
            for &p in &func.params {
                v.define(p)?;
            }
            let scope: Vec<Var> = func.params.clone();
            v.check_region(&func.body, &scope, false)?;
            let mut end_scope = scope;
            collect_scope(&func.body, &mut end_scope);
            for &r in &func.returns {
                v.check_use(r, &end_scope)?;
            }
        }
        Ok(())
    }

    fn check_call_graph(program: &Program) -> Result<(), ValidateError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
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
        fn dfs(program: &Program, f: FuncId, marks: &mut Vec<Mark>) -> Result<(), ValidateError> {
            match marks[f.0 as usize] {
                Mark::Black => return Ok(()),
                Mark::Gray => {
                    return Err(ValidateError::RecursiveCall { func: program.func(f).name.clone() })
                }
                Mark::White => {}
            }
            marks[f.0 as usize] = Mark::Gray;
            let mut out = Vec::new();
            callees(&program.func(f).body, &mut out);
            for c in out {
                if (c.0 as usize) >= program.funcs.len() {
                    return Err(ValidateError::UnknownFunc {
                        caller: program.func(f).name.clone(),
                        func: c,
                    });
                }
                dfs(program, c, marks)?;
            }
            marks[f.0 as usize] = Mark::Black;
            Ok(())
        }
        let mut marks = vec![Mark::White; program.funcs.len()];
        for i in 0..program.funcs.len() {
            dfs(program, FuncId(i as u32), &mut marks)?;
        }
        Ok(())
    }

    fn collect_scope(region: &Region, scope: &mut Vec<Var>) {
        for s in &region.stmts {
            scope.extend(s.defs());
        }
    }

    struct Validator<'a> {
        program: &'a Program,
        func_name: &'a str,
        n_vars: u32,
        defined: HashSet<Var>,
        labels: &'a mut HashSet<String>,
    }

    impl<'a> Validator<'a> {
        fn define(&mut self, v: Var) -> Result<(), ValidateError> {
            if v.0 >= self.n_vars {
                return Err(ValidateError::VarOutOfRange { func: self.func_name.into(), var: v });
            }
            if !self.defined.insert(v) {
                return Err(ValidateError::Redefinition { func: self.func_name.into(), var: v });
            }
            Ok(())
        }

        fn check_use(&self, o: Operand, scope: &[Var]) -> Result<(), ValidateError> {
            if let Operand::Var(v) = o {
                if !scope.contains(&v) {
                    return Err(ValidateError::UseBeforeDef {
                        func: self.func_name.into(),
                        var: v,
                    });
                }
            }
            Ok(())
        }

        fn check_region(
            &mut self,
            region: &Region,
            entry_scope: &[Var],
            in_if: bool,
        ) -> Result<(), ValidateError> {
            let mut scope: Vec<Var> = entry_scope.to_vec();
            for stmt in &region.stmts {
                match stmt {
                    Stmt::Op { dst, lhs, rhs, .. } => {
                        self.check_use(*lhs, &scope)?;
                        self.check_use(*rhs, &scope)?;
                        self.define(*dst)?;
                        scope.push(*dst);
                    }
                    Stmt::Load { dst, addr } => {
                        self.check_use(*addr, &scope)?;
                        self.define(*dst)?;
                        scope.push(*dst);
                    }
                    Stmt::Store { addr, value } | Stmt::StoreAdd { addr, value } => {
                        self.check_use(*addr, &scope)?;
                        self.check_use(*value, &scope)?;
                    }
                    Stmt::Select { dst, cond, on_true, on_false } => {
                        self.check_use(*cond, &scope)?;
                        self.check_use(*on_true, &scope)?;
                        self.check_use(*on_false, &scope)?;
                        self.define(*dst)?;
                        scope.push(*dst);
                    }
                    Stmt::If(i) => self.check_if(i, &mut scope)?,
                    Stmt::Loop(l) => {
                        if in_if {
                            return Err(ValidateError::IfContainsBlock {
                                func: self.func_name.into(),
                            });
                        }
                        self.check_loop(l, &mut scope)?;
                    }
                    Stmt::Call { func, args, rets } => {
                        if in_if {
                            return Err(ValidateError::IfContainsBlock {
                                func: self.func_name.into(),
                            });
                        }
                        let idx = func.0 as usize;
                        if idx >= self.program.funcs.len() {
                            return Err(ValidateError::UnknownFunc {
                                caller: self.func_name.into(),
                                func: *func,
                            });
                        }
                        let callee = &self.program.funcs[idx];
                        if callee.params.len() != args.len() {
                            return Err(ValidateError::CallArity {
                                caller: self.func_name.into(),
                                callee: callee.name.clone(),
                                expected: callee.params.len(),
                                got: args.len(),
                            });
                        }
                        if callee.returns.len() != rets.len() {
                            return Err(ValidateError::ReturnArity {
                                caller: self.func_name.into(),
                                callee: callee.name.clone(),
                                expected: callee.returns.len(),
                                got: rets.len(),
                            });
                        }
                        for &a in args {
                            self.check_use(a, &scope)?;
                        }
                        for &r in rets {
                            self.define(r)?;
                            scope.push(r);
                        }
                    }
                }
            }
            Ok(())
        }

        fn check_if(&mut self, i: &IfStmt, scope: &mut Vec<Var>) -> Result<(), ValidateError> {
            self.check_use(i.cond, scope)?;
            self.check_region(&i.then_region, scope, true)?;
            self.check_region(&i.else_region, scope, true)?;
            let mut then_scope = scope.clone();
            collect_scope(&i.then_region, &mut then_scope);
            let mut else_scope = scope.clone();
            collect_scope(&i.else_region, &mut else_scope);
            for &(d, t, e) in &i.merges {
                self.check_use(t, &then_scope)?;
                self.check_use(e, &else_scope)?;
                self.define(d)?;
                scope.push(d);
            }
            Ok(())
        }

        fn check_loop(&mut self, l: &LoopStmt, scope: &mut Vec<Var>) -> Result<(), ValidateError> {
            if !self.labels.insert(l.label.clone()) {
                return Err(ValidateError::DuplicateLoopLabel { label: l.label.clone() });
            }
            if l.next.len() != l.carried.len() {
                return Err(ValidateError::NextArity { label: l.label.clone() });
            }
            for s in &l.pre.stmts {
                if !matches!(s, Stmt::Op { .. } | Stmt::Select { .. }) {
                    return Err(ValidateError::ImpurePre { label: l.label.clone() });
                }
            }
            let mut loop_scope: Vec<Var> = Vec::new();
            for &(v, init) in &l.carried {
                self.check_use(init, scope)?;
                self.define(v)?;
                loop_scope.push(v);
            }
            self.check_region(&l.pre, &loop_scope, false)?;
            let mut pre_scope = loop_scope.clone();
            collect_scope(&l.pre, &mut pre_scope);
            self.check_use(l.cond, &pre_scope)?;
            self.check_region(&l.body, &pre_scope, false)?;
            let mut body_scope = pre_scope.clone();
            collect_scope(&l.body, &mut body_scope);
            for &n in &l.next {
                self.check_use(n, &body_scope)?;
            }
            for &(d, src) in &l.exits {
                self.check_use(src, &pre_scope)?;
                self.define(d)?;
                scope.push(d);
            }
            Ok(())
        }
    }
}

/// One operand or definition site of a function, in program order.
enum Site<'a> {
    Use(&'a mut Operand),
    Def(&'a mut Var),
}

fn walk_func(func: &mut Function, f: &mut dyn FnMut(Site<'_>)) {
    func.params.iter_mut().for_each(|p| f(Site::Def(p)));
    walk(&mut func.body, f);
    func.returns.iter_mut().for_each(|r| f(Site::Use(r)));
}

fn walk(region: &mut Region, f: &mut dyn FnMut(Site<'_>)) {
    for stmt in &mut region.stmts {
        match stmt {
            Stmt::Op { dst, lhs, rhs, .. } => {
                f(Site::Use(lhs));
                f(Site::Use(rhs));
                f(Site::Def(dst));
            }
            Stmt::Load { dst, addr } => {
                f(Site::Use(addr));
                f(Site::Def(dst));
            }
            Stmt::Store { addr, value } | Stmt::StoreAdd { addr, value } => {
                f(Site::Use(addr));
                f(Site::Use(value));
            }
            Stmt::Select { dst, cond, on_true, on_false } => {
                f(Site::Use(cond));
                f(Site::Use(on_true));
                f(Site::Use(on_false));
                f(Site::Def(dst));
            }
            Stmt::If(i) => {
                f(Site::Use(&mut i.cond));
                walk(&mut i.then_region, f);
                walk(&mut i.else_region, f);
                for (d, t, e) in &mut i.merges {
                    f(Site::Use(t));
                    f(Site::Use(e));
                    f(Site::Def(d));
                }
            }
            Stmt::Loop(l) => {
                for (v, init) in &mut l.carried {
                    f(Site::Use(init));
                    f(Site::Def(v));
                }
                walk(&mut l.pre, f);
                f(Site::Use(&mut l.cond));
                walk(&mut l.body, f);
                l.next.iter_mut().for_each(|n| f(Site::Use(n)));
                for (d, src) in &mut l.exits {
                    f(Site::Use(src));
                    f(Site::Def(d));
                }
            }
            Stmt::Call { args, rets, .. } => {
                args.iter_mut().for_each(|a| f(Site::Use(a)));
                rets.iter_mut().for_each(|r| f(Site::Def(r)));
            }
        }
    }
}

/// Every region of a function, outermost first.
fn regions(region: &mut Region, f: &mut dyn FnMut(&mut Region)) {
    f(region);
    for stmt in &mut region.stmts {
        match stmt {
            Stmt::If(i) => {
                regions(&mut i.then_region, f);
                regions(&mut i.else_region, f);
            }
            Stmt::Loop(l) => {
                regions(&mut l.pre, f);
                regions(&mut l.body, f);
            }
            _ => {}
        }
    }
}

fn loops(region: &mut Region, f: &mut dyn FnMut(&mut LoopStmt)) {
    regions(region, &mut |r| {
        for stmt in &mut r.stmts {
            if let Stmt::Loop(l) = stmt {
                f(l);
            }
        }
    });
}

fn ifs(region: &mut Region, f: &mut dyn FnMut(&mut IfStmt)) {
    regions(region, &mut |r| {
        for stmt in &mut r.stmts {
            if let Stmt::If(i) = stmt {
                f(i);
            }
        }
    });
}

/// The variables a function defines, in program order.
fn defs_of(func: &Function) -> Vec<Var> {
    let mut out = Vec::new();
    walk_func(&mut func.clone(), &mut |s| {
        if let Site::Def(v) = s {
            out.push(*v);
        }
    });
    out
}

/// The first top-level definition of a region.
fn first_def(region: &Region) -> Option<Var> {
    region.stmts.iter().flat_map(|s| s.defs()).next()
}

/// Edits the `k`-th use site of function `fi` to read `to(n_vars)`.
fn retarget_use(p: &Program, fi: usize, k: usize, to: impl Fn(u32) -> Var) -> Program {
    let mut q = p.clone();
    let func = &mut q.funcs[fi];
    let target = to(func.n_vars);
    let mut seen = 0;
    walk_func(func, &mut |s| {
        if let Site::Use(o) = s {
            if seen == k {
                *o = Operand::Var(target);
            }
            seen += 1;
        }
    });
    q
}

/// Broken copies of `p`, labelled by what was broken.
fn mutations(p: &Program) -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for fi in 0..p.funcs.len() {
        let mut func = p.funcs[fi].clone();
        let mut n_uses = 0;
        walk_func(&mut func, &mut |s| n_uses += usize::from(matches!(s, Site::Use(_))));
        let defs = defs_of(&func);
        // A handful of spread-out operand sites per function.
        let mut sites: Vec<usize> = (0..6).map(|j| j * n_uses / 6).collect();
        sites.push(n_uses.saturating_sub(1));
        sites.dedup();
        for &k in sites.iter().filter(|&&k| k < n_uses) {
            let mut undefined = retarget_use(p, fi, k, Var);
            undefined.funcs[fi].n_vars += 1;
            out.push((format!("f{fi}/use{k}/undefined"), undefined));
            out.push((
                format!("f{fi}/use{k}/out-of-range"),
                retarget_use(p, fi, k, |n| Var(n + 3)),
            ));
            for (j, &d) in defs.iter().enumerate().skip(k % 5).step_by(5) {
                out.push((format!("f{fi}/use{k}/def{j}"), retarget_use(p, fi, k, |_| d)));
            }
        }
        // Duplicated definitions (a later def site reuses an earlier var)
        // and definitions past the declared variable count.
        for k in (1..defs.len()).step_by(3) {
            for (how, to) in [("duplicate", defs[k / 2]), ("out-of-range", Var(func.n_vars + 2))] {
                let mut q = p.clone();
                let mut seen = 0;
                walk_func(&mut q.funcs[fi], &mut |s| {
                    if let Site::Def(v) = s {
                        if seen == k {
                            *v = to;
                        }
                        seen += 1;
                    }
                });
                out.push((format!("f{fi}/def{k}/{how}"), q));
            }
        }
        // Colliding labels: every later loop takes the first loop's label.
        let mut labels = Vec::new();
        loops(&mut func.body, &mut |l| labels.push(l.label.clone()));
        for k in 1..labels.len() {
            let mut q = p.clone();
            let mut seen = 0;
            loops(&mut q.funcs[fi].body, &mut |l| {
                if seen == k {
                    l.label = labels[0].clone();
                }
                seen += 1;
            });
            out.push((format!("f{fi}/loop{k}/label"), q));
        }
        // A call or loop moved into a fresh `if` arm, and into the then arm
        // of an `if` already in the same region.
        let mut n_regions = 0;
        regions(&mut func.body, &mut |_| n_regions += 1);
        for k in 0..n_regions {
            for arm in ["fresh-then", "fresh-else", "existing"] {
                let mut q = p.clone();
                let mut seen = 0;
                let mut moved = false;
                regions(&mut q.funcs[fi].body, &mut |r| {
                    seen += 1;
                    if seen - 1 != k {
                        return;
                    }
                    let Some(s) =
                        r.stmts.iter().position(|s| matches!(s, Stmt::Loop(_) | Stmt::Call { .. }))
                    else {
                        return;
                    };
                    if arm == "existing" {
                        let Some(at) = r.stmts.iter().position(|s| matches!(s, Stmt::If(_))) else {
                            return;
                        };
                        let block = r.stmts.remove(s);
                        let at = if at > s { at - 1 } else { at };
                        if let Stmt::If(i) = &mut r.stmts[at] {
                            i.then_region.stmts.push(block);
                        }
                    } else {
                        let block = r.stmts.remove(s);
                        let (mut then_region, mut else_region) =
                            (Region::default(), Region::default());
                        if arm == "fresh-then" {
                            then_region.stmts.push(block);
                        } else {
                            else_region.stmts.push(block);
                        }
                        r.stmts.insert(
                            s,
                            Stmt::If(IfStmt {
                                cond: Operand::Const(1),
                                then_region,
                                else_region,
                                merges: vec![],
                            }),
                        );
                    }
                    moved = true;
                });
                if moved {
                    out.push((format!("f{fi}/region{k}/into-if-{arm}"), q));
                }
            }
        }
        // Broken call arities: one argument or return too many or too few,
        // and a call to a function that does not exist.
        let mut n_calls = 0;
        regions(&mut func.body, &mut |r| {
            n_calls += r.stmts.iter().filter(|s| matches!(s, Stmt::Call { .. })).count();
        });
        for k in 0..n_calls {
            for how in ["arg+", "arg-", "ret+", "ret-", "unknown"] {
                let mut q = p.clone();
                let fresh = Var(q.funcs[fi].n_vars);
                q.funcs[fi].n_vars += 1;
                let mut seen = 0;
                regions(&mut q.funcs[fi].body, &mut |r| {
                    for stmt in &mut r.stmts {
                        if let Stmt::Call { func, args, rets } = stmt {
                            if seen == k {
                                match how {
                                    "arg+" => args.push(Operand::Const(0)),
                                    "arg-" => drop(args.pop()),
                                    "ret+" => rets.push(fresh),
                                    "ret-" => drop(rets.pop()),
                                    _ => *func = FuncId(99),
                                }
                            }
                            seen += 1;
                        }
                    }
                });
                out.push((format!("f{fi}/call{k}/{how}"), q));
            }
        }
        // An exit that reads a body variable.
        let mut n_loops = 0;
        loops(&mut func.body, &mut |_| n_loops += 1);
        for k in 0..n_loops {
            let mut q = p.clone();
            let fresh = Var(q.funcs[fi].n_vars);
            q.funcs[fi].n_vars += 1;
            let mut seen = 0;
            let mut changed = false;
            loops(&mut q.funcs[fi].body, &mut |l| {
                if seen == k {
                    if let Some(b) = first_def(&l.body) {
                        match l.exits.first_mut() {
                            Some(exit) => exit.1 = Operand::Var(b),
                            None => l.exits.push((fresh, Operand::Var(b))),
                        }
                        changed = true;
                    }
                }
                seen += 1;
            });
            if changed {
                out.push((format!("f{fi}/loop{k}/exit-reads-body"), q));
            }
        }
        // A merge that reads the other arm's definition, or another merge's
        // destination.
        let mut n_ifs = 0;
        ifs(&mut func.body, &mut |_| n_ifs += 1);
        for k in 0..n_ifs {
            for how in ["then-reads-else", "else-reads-then", "reads-merge"] {
                let mut q = p.clone();
                let mut seen = 0;
                let mut changed = false;
                ifs(&mut q.funcs[fi].body, &mut |i| {
                    if seen == k && !i.merges.is_empty() {
                        let last = i.merges.len() - 1;
                        let (from, slot) = match how {
                            "then-reads-else" => (first_def(&i.else_region), 1),
                            "else-reads-then" => (first_def(&i.then_region), 2),
                            _ => (Some(i.merges[last].0), 1),
                        };
                        if let Some(v) = from {
                            let m = &mut i.merges[0];
                            if slot == 1 {
                                m.1 = Operand::Var(v);
                            } else {
                                m.2 = Operand::Var(v);
                            }
                            changed = true;
                        }
                    }
                    seen += 1;
                });
                if changed {
                    out.push((format!("f{fi}/if{k}/{how}"), q));
                }
            }
        }
    }
    out
}

/// A helper called from inside a loop and once after it, with a merge in
/// the caller so calls, loops and `if`s share one function.
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
    let p = pb.finish(f, [r2[0]]);
    // Give `main` a conditional after the second call.
    let mut p = p;
    let main = p.entry.0 as usize;
    let (cond, x) = (Var(p.funcs[main].n_vars), Var(p.funcs[main].n_vars + 1));
    let (y, z) = (Var(p.funcs[main].n_vars + 2), Var(p.funcs[main].n_vars + 3));
    p.funcs[main].n_vars += 4;
    let op = |dst, lhs, rhs| Stmt::Op { dst, op: tyr_ir::AluOp::Add, lhs, rhs };
    let stmts = &mut p.funcs[main].body.stmts;
    stmts.push(op(cond, r2[0], Operand::Const(1)));
    stmts.push(Stmt::If(IfStmt {
        cond: Operand::Var(cond),
        then_region: Region { stmts: vec![op(x, n, Operand::Const(2))] },
        else_region: Region { stmts: vec![op(y, out, Operand::Const(3))] },
        merges: vec![(z, Operand::Var(x), Operand::Var(y))],
    }));
    p.funcs[main].returns = vec![Operand::Var(z)];
    p
}

#[test]
fn validator_agrees_with_the_scope_copying_reference() {
    let mut programs: Vec<(String, Program)> = (0..RECIPES)
        .map(|s| (format!("recipe{s}"), Recipe::generate(s, RECIPE_SIZE).materialize().program))
        .collect();
    programs.extend(suite(Scale::Tiny, 5).into_iter().map(|w| (w.name, w.program)));
    programs.push(("call".into(), call_program()));

    let mut checked = 0;
    let mut verdicts: HashSet<String> = HashSet::new();
    for (name, program) in &programs {
        assert_eq!(validate(program), Ok(()), "{name}");
        assert_eq!(reference::validate(program), Ok(()), "{name}");
        for (what, mutant) in mutations(program) {
            let got = validate(&mutant);
            assert_eq!(got, reference::validate(&mutant), "{name}: {what}");
            if let Err(e) = got {
                verdicts.insert(format!("{e:?}").split([' ', '{']).next().unwrap().to_string());
            }
            checked += 1;
        }
    }
    assert!(checked > 10_000, "only {checked} mutants");
    for variant in [
        "UseBeforeDef",
        "Redefinition",
        "VarOutOfRange",
        "CallArity",
        "ReturnArity",
        "UnknownFunc",
        "IfContainsBlock",
        "DuplicateLoopLabel",
    ] {
        assert!(verdicts.contains(variant), "no mutant reached {variant}: {verdicts:?}");
    }
}
