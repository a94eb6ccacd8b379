//! Static validation of structured programs.
//!
//! Mirrors the guarantees the paper's compiler relies on:
//!
//! * reducible control flow only (the structured IR cannot express
//!   irreducible `goto`s at all, matching footnote 3 of the paper);
//! * an **acyclic call graph** — general recursion must be transformed to
//!   tail recursion (loops) with an explicit stack, exactly as Theorem 1
//!   assumes;
//! * concurrent blocks are DAGs: variables are statically assigned once and
//!   used only after definition, in scope;
//! * loop prologues (`pre`) are pure, so the final test-only iteration has
//!   no side effects;
//! * `if` regions contain no loops or calls (see DESIGN.md §3.1);
//! * call arities match; loop labels used for tag-space sizing are unique.

use std::collections::HashSet;
use std::fmt;

use crate::program::{IfStmt, LoopStmt, Program, Region, Stmt};
use crate::types::{FuncId, Operand, Var};

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A variable was used before being defined (or out of scope).
    UseBeforeDef {
        /// The function containing the use.
        func: String,
        /// The offending variable.
        var: Var,
    },
    /// A variable has more than one static definition.
    Redefinition {
        /// The function containing the definitions.
        func: String,
        /// The offending variable.
        var: Var,
    },
    /// A variable index is outside the function's declared `n_vars`.
    VarOutOfRange {
        /// The function.
        func: String,
        /// The offending variable.
        var: Var,
    },
    /// The call graph has a cycle (general recursion is not directly
    /// representable; use a loop with an explicit stack).
    RecursiveCall {
        /// A function on the cycle.
        func: String,
    },
    /// A call's argument count does not match the callee's parameters.
    CallArity {
        /// Caller function name.
        caller: String,
        /// Callee function name.
        callee: String,
        /// Callee's declared parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// A call's return count does not match the callee's returns.
    ReturnArity {
        /// Caller function name.
        caller: String,
        /// Callee function name.
        callee: String,
        /// Callee's declared return count.
        expected: usize,
        /// Requested return count.
        got: usize,
    },
    /// A call references a function id that does not exist.
    UnknownFunc {
        /// Caller function name.
        caller: String,
        /// The bad id.
        func: FuncId,
    },
    /// A loop `pre` region contains a side-effecting or structured statement.
    ImpurePre {
        /// The loop's label.
        label: String,
    },
    /// A loop's `next` arity differs from its carried-variable count.
    NextArity {
        /// The loop's label.
        label: String,
    },
    /// An `if` region contains a loop or call.
    IfContainsBlock {
        /// The function containing the `if`.
        func: String,
    },
    /// Two loops share a label (labels address tag spaces, so must be
    /// unique program-wide).
    DuplicateLoopLabel {
        /// The duplicated label.
        label: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UseBeforeDef { func, var } => {
                write!(f, "in '{func}': {var} used before definition or out of scope")
            }
            ValidateError::Redefinition { func, var } => {
                write!(f, "in '{func}': {var} statically redefined")
            }
            ValidateError::VarOutOfRange { func, var } => {
                write!(f, "in '{func}': {var} exceeds declared variable count")
            }
            ValidateError::RecursiveCall { func } => {
                write!(f, "call graph cycle through '{func}' (general recursion unsupported)")
            }
            ValidateError::CallArity { caller, callee, expected, got } => {
                write!(f, "'{caller}' calls '{callee}' with {got} args, expected {expected}")
            }
            ValidateError::ReturnArity { caller, callee, expected, got } => {
                write!(
                    f,
                    "'{caller}' expects {got} returns from '{callee}', which returns {expected}"
                )
            }
            ValidateError::UnknownFunc { caller, func } => {
                write!(f, "'{caller}' calls unknown function {func}")
            }
            ValidateError::ImpurePre { label } => {
                write!(f, "loop '{label}': pre region must contain only pure ops")
            }
            ValidateError::NextArity { label } => {
                write!(f, "loop '{label}': next arity differs from carried arity")
            }
            ValidateError::IfContainsBlock { func } => {
                write!(f, "in '{func}': if regions may not contain loops or calls")
            }
            ValidateError::DuplicateLoopLabel { label } => {
                write!(f, "duplicate loop label '{label}'")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validates a whole program.
///
/// Runs in time linear in the program: one scope stack per function holds
/// the variables in scope, `pos` maps each variable to its stack slot, and
/// a loop raises a floor below which its body sees nothing. Errors are
/// reported in the same traversal order as a scope-copying checker would,
/// so the *first* violation found is the one returned.
///
/// # Errors
///
/// Returns the first [`ValidateError`] found.
pub fn validate(program: &Program) -> Result<(), ValidateError> {
    check_call_graph(program)?;
    let mut v = Validator {
        program,
        func_name: "",
        defined: Vec::new(),
        pos: Vec::new(),
        stack: Vec::new(),
        floor: 0,
        labels: HashSet::new(),
    };
    for func in &program.funcs {
        v.func_name = &func.name;
        let n = func.n_vars as usize;
        v.defined.clear();
        v.defined.resize(n, false);
        v.pos.clear();
        v.pos.resize(n, 0);
        v.stack.clear();
        v.floor = 0;
        for &p in &func.params {
            v.define(p)?;
        }
        for &p in &func.params {
            v.push(p);
        }
        // The body's top-level defs stay on the stack: the returns see them.
        v.check_region(&func.body, false)?;
        for &r in &func.returns {
            v.check_use(r)?;
        }
    }
    Ok(())
}

/// Detects cycles in the call graph via DFS.
fn check_call_graph(program: &Program) -> Result<(), ValidateError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    /// Visits the calls of `r` in program order, descending into each
    /// callee before looking at the next call.
    fn calls(
        program: &Program,
        caller: FuncId,
        r: &Region,
        marks: &mut [Mark],
    ) -> Result<(), ValidateError> {
        for s in &r.stmts {
            match s {
                Stmt::Call { func, .. } => {
                    if (func.0 as usize) >= program.funcs.len() {
                        return Err(ValidateError::UnknownFunc {
                            caller: program.func(caller).name.clone(),
                            func: *func,
                        });
                    }
                    dfs(program, *func, marks)?;
                }
                Stmt::Loop(l) => {
                    calls(program, caller, &l.pre, marks)?;
                    calls(program, caller, &l.body, marks)?;
                }
                Stmt::If(i) => {
                    calls(program, caller, &i.then_region, marks)?;
                    calls(program, caller, &i.else_region, marks)?;
                }
                _ => {}
            }
        }
        Ok(())
    }
    fn dfs(program: &Program, f: FuncId, marks: &mut [Mark]) -> Result<(), ValidateError> {
        match marks[f.0 as usize] {
            Mark::Black => return Ok(()),
            Mark::Gray => {
                return Err(ValidateError::RecursiveCall { func: program.func(f).name.clone() })
            }
            Mark::White => {}
        }
        marks[f.0 as usize] = Mark::Gray;
        calls(program, f, &program.func(f).body, marks)?;
        marks[f.0 as usize] = Mark::Black;
        Ok(())
    }
    let mut marks = vec![Mark::White; program.funcs.len()];
    for i in 0..program.funcs.len() {
        dfs(program, FuncId(i as u32), &mut marks)?;
    }
    Ok(())
}

/// Per-function scope state, reused across the program's functions.
struct Validator<'a> {
    program: &'a Program,
    func_name: &'a str,
    /// Whether each variable has been defined anywhere in the function.
    defined: Vec<bool>,
    /// `pos[v]` = 1 + `v`'s index in `stack`, or 0 when `v` is out of scope.
    pos: Vec<u32>,
    /// The variables in scope, outermost first.
    stack: Vec<Var>,
    /// Stack entries below this index belong to an enclosing concurrent
    /// block, which a loop body may not reference.
    floor: usize,
    /// Loop labels seen so far, program-wide.
    labels: HashSet<&'a str>,
}

impl<'a> Validator<'a> {
    fn define(&mut self, v: Var) -> Result<(), ValidateError> {
        let Some(seen) = self.defined.get_mut(v.0 as usize) else {
            return Err(ValidateError::VarOutOfRange { func: self.func_name.into(), var: v });
        };
        if std::mem::replace(seen, true) {
            return Err(ValidateError::Redefinition { func: self.func_name.into(), var: v });
        }
        Ok(())
    }

    /// Brings a defined (hence in-range) variable into scope.
    fn push(&mut self, v: Var) {
        self.stack.push(v);
        self.pos[v.0 as usize] = self.stack.len() as u32;
    }

    /// Drops every scope entry from `len` up.
    fn truncate(&mut self, len: usize) {
        for v in self.stack.drain(len..) {
            self.pos[v.0 as usize] = 0;
        }
    }

    fn visible(&self, v: Var) -> bool {
        self.pos.get(v.0 as usize).is_some_and(|&p| p as usize > self.floor)
    }

    fn check_use(&self, o: Operand) -> Result<(), ValidateError> {
        match o {
            Operand::Var(v) if !self.visible(v) => {
                Err(ValidateError::UseBeforeDef { func: self.func_name.into(), var: v })
            }
            _ => Ok(()),
        }
    }

    fn check_def(&mut self, v: Var) -> Result<(), ValidateError> {
        self.define(v)?;
        self.push(v);
        Ok(())
    }

    /// Validates a region against the current scope, leaving its top-level
    /// defs in scope for the caller to keep or truncate. `in_if` rejects
    /// loops/calls.
    fn check_region(&mut self, region: &'a Region, in_if: bool) -> Result<(), ValidateError> {
        for stmt in &region.stmts {
            match stmt {
                Stmt::Op { dst, lhs, rhs, .. } => {
                    self.check_use(*lhs)?;
                    self.check_use(*rhs)?;
                    self.check_def(*dst)?;
                }
                Stmt::Load { dst, addr } => {
                    self.check_use(*addr)?;
                    self.check_def(*dst)?;
                }
                Stmt::Store { addr, value } | Stmt::StoreAdd { addr, value } => {
                    self.check_use(*addr)?;
                    self.check_use(*value)?;
                }
                Stmt::Select { dst, cond, on_true, on_false } => {
                    self.check_use(*cond)?;
                    self.check_use(*on_true)?;
                    self.check_use(*on_false)?;
                    self.check_def(*dst)?;
                }
                Stmt::If(i) => self.check_if(i)?,
                Stmt::Loop(l) => {
                    if in_if {
                        return Err(ValidateError::IfContainsBlock { func: self.func_name.into() });
                    }
                    self.check_loop(l)?;
                }
                Stmt::Call { func, args, rets } => {
                    if in_if {
                        return Err(ValidateError::IfContainsBlock { func: self.func_name.into() });
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
                        self.check_use(a)?;
                    }
                    for &r in rets {
                        self.check_def(r)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Each arm sees the enclosing scope plus its own defs. A merge's `t`
    /// sees the enclosing scope plus the then-arm's top-level defs, and its
    /// `e` the same with the else-arm's; neither sees the merges' own
    /// destinations.
    fn check_if(&mut self, i: &'a IfStmt) -> Result<(), ValidateError> {
        self.check_use(i.cond)?;
        let base = self.stack.len();
        self.check_region(&i.then_region, true)?;
        // The then-view is gone once the else arm runs, so find the first
        // merge whose `t` it cannot see now; `t` errors rank before that
        // merge's `e` and destination.
        let bad_t = i.merges.iter().enumerate().find_map(|(k, &(_, t, _))| match t {
            Operand::Var(v) if !self.visible(v) => Some((k, v)),
            _ => None,
        });
        self.truncate(base);
        self.check_region(&i.else_region, true)?;
        for (k, &(d, _, e)) in i.merges.iter().enumerate() {
            if let Some((_, var)) = bad_t.filter(|&(bad, _)| bad == k) {
                return Err(ValidateError::UseBeforeDef { func: self.func_name.into(), var });
            }
            self.check_use(e)?;
            self.define(d)?;
        }
        self.truncate(base);
        for &(d, _, _) in &i.merges {
            self.push(d);
        }
        Ok(())
    }

    fn check_loop(&mut self, l: &'a LoopStmt) -> Result<(), ValidateError> {
        if !self.labels.insert(l.label.as_str()) {
            return Err(ValidateError::DuplicateLoopLabel { label: l.label.clone() });
        }
        if l.next.len() != l.carried.len() {
            return Err(ValidateError::NextArity { label: l.label.clone() });
        }
        // Pre region: pure statements only.
        for s in &l.pre.stmts {
            if !matches!(s, Stmt::Op { .. } | Stmt::Select { .. }) {
                return Err(ValidateError::ImpurePre { label: l.label.clone() });
            }
        }
        // The inits are read in the parent scope, which sees none of the
        // carried variables.
        for &(v, init) in &l.carried {
            self.check_use(init)?;
            self.define(v)?;
        }
        // Loop scope starts from the carried vars ONLY — the loop body must
        // not reference parent locals directly (they belong to a different
        // concurrent block / tag space). Anything needed inside must be
        // carried in. Constants are fine (immediates).
        let (base, parent_floor) = (self.stack.len(), self.floor);
        self.floor = base;
        for &(v, _) in &l.carried {
            self.push(v);
        }
        self.check_region(&l.pre, false)?;
        self.check_use(l.cond)?;
        let pre_top = self.stack.len();
        self.check_region(&l.body, false)?;
        for &n in &l.next {
            self.check_use(n)?;
        }
        self.truncate(pre_top);
        for &(d, src) in &l.exits {
            // Exits leave from the failing test: only carried/pre values exist.
            self.check_use(src)?;
            self.define(d)?;
        }
        self.truncate(base);
        self.floor = parent_floor;
        for &(d, _) in &l.exits {
            self.push(d);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::types::{AluOp, NO_OPERANDS};

    fn valid_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, n] = f.begin_loop("l", [0.into(), 0.into(), n]);
        let c = f.lt(i, n);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2, n], [acc]);
        pb.finish(f, [out])
    }

    #[test]
    fn accepts_valid_program() {
        assert_eq!(validate(&valid_program()), Ok(()));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut p = valid_program();
        // Inject a use of an undefined var into main's body.
        p.funcs[0].body.stmts.insert(
            0,
            Stmt::Op {
                dst: Var(90),
                op: AluOp::Add,
                lhs: Operand::Var(Var(80)),
                rhs: Operand::Const(0),
            },
        );
        p.funcs[0].n_vars = 100;
        assert!(matches!(validate(&p), Err(ValidateError::UseBeforeDef { .. })));
    }

    #[test]
    fn rejects_parent_scope_reference_in_loop_body() {
        // The loop body references `n` (a parent local) without carrying it.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 10);
        f.begin_body(c);
        let i2 = f.add(i, n); // illegal: n belongs to the parent block
        f.end_loop([i2], NO_OPERANDS);
        let p = pb.finish(f, NO_OPERANDS);
        assert!(matches!(validate(&p), Err(ValidateError::UseBeforeDef { .. })));
    }

    #[test]
    fn rejects_recursion() {
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare("rec", 1);
        let mut f = pb.func_for(fid);
        let x = f.param(0);
        let r = f.call(fid, &[x], 1);
        pb.define(f, [r[0]]);
        let p = pb.build();
        assert!(matches!(validate(&p), Err(ValidateError::RecursiveCall { .. })));
    }

    #[test]
    fn rejects_impure_pre() {
        let mut p = valid_program();
        // Force a load into the pre region.
        if let Stmt::Loop(l) = &mut p.funcs[0].body.stmts[0] {
            l.pre.stmts.push(Stmt::Load { dst: Var(50), addr: Operand::Const(0) });
            p.funcs[0].n_vars = 60;
        } else {
            panic!("expected loop");
        }
        assert!(matches!(validate(&p), Err(ValidateError::ImpurePre { .. })));
    }

    #[test]
    fn rejects_duplicate_labels() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        for _ in 0..2 {
            let [i] = f.begin_loop("same", [0]);
            let c = f.lt(i, 1);
            f.begin_body(c);
            let i2 = f.add(i, 1);
            f.end_loop([i2], NO_OPERANDS);
        }
        let p = pb.finish(f, NO_OPERANDS);
        assert!(matches!(validate(&p), Err(ValidateError::DuplicateLoopLabel { .. })));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut pb = ProgramBuilder::new();
        let g = pb.func("g", 2);
        let a = g.param(0);
        let gid = g.id();
        pb.define(g, [a]);
        let mut f = pb.func("main", 0);
        let r = f.call(gid, &[Operand::Const(1)], 1); // needs 2 args
        let p = pb.finish(f, [r[0]]);
        assert!(matches!(validate(&p), Err(ValidateError::CallArity { .. })));
    }

    #[test]
    fn rejects_loop_inside_if() {
        // Hand-construct: if (1) { loop {} }
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("inner", [0]);
        let c = f.lt(i, 1);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        f.end_loop([i2], NO_OPERANDS);
        let mut p = pb.finish(f, NO_OPERANDS);
        let lp = p.funcs[0].body.stmts.pop().unwrap();
        p.funcs[0].body.stmts.push(Stmt::If(IfStmt {
            cond: Operand::Const(1),
            then_region: Region { stmts: vec![lp] },
            else_region: Region::default(),
            merges: vec![],
        }));
        assert!(matches!(validate(&p), Err(ValidateError::IfContainsBlock { .. })));
    }

    #[test]
    fn rejects_exit_referencing_body_var() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 3);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        // Exit uses a body var (i2) — illegal: exits leave from the failing
        // test, where the body never ran.
        let [_bad] = f.end_loop([i2], [i2]);
        let p = pb.finish(f, NO_OPERANDS);
        assert!(matches!(validate(&p), Err(ValidateError::UseBeforeDef { .. })));
    }
}
