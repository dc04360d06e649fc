//! Design elaboration: hierarchy flattening, parameter resolution, and
//! for-loop unrolling.
//!
//! The paper's preprocess phase "flattens the modular codes"; this module is
//! that step. [`flatten`] inlines every module instance into a single flat
//! [`Module`] whose only remaining items are declarations, assigns, always
//! blocks, and gate primitives.
//!
//! Elaboration consumes the module it flattens and rewrites its items in
//! place. [`flatten`] clones the top module out of a borrowed unit;
//! [`crate::elaborate`] owns its unit and moves the top module out
//! instead. Every instantiated child is cloned from the unit, since one
//! module may be instantiated many times.
//!
//! Instantiation and unrolling multiply a design: nested loops multiply
//! their trip counts, and a module that instantiates its child twice
//! doubles the inlined body at every level. So each design elaborates
//! under one [`ELABORATION_BUDGET`], charged before each copy is made.

use std::collections::HashMap;

use crate::ast::*;
use crate::ParseVerilogError;

/// The most work one design's elaboration may do beyond moving its top
/// module, in syntax-tree nodes: statement, expression, port and
/// parameter nodes, and loop-environment entries.
///
/// Each unrolled iteration charges the nodes of the loop body it copies
/// plus those of the condition and step it evaluates, so every iteration
/// charges at least one unit. Each instance charges the child module it
/// copies, the port bridges it emits, and every item it splices into its
/// parent; those last two charge one more unit per node for every 32
/// bytes of the instance-name prefix their names gain. A design that
/// would pass the budget is refused with an error that names it. No generated corpus design comes near it (see
/// BASELINE.md).
pub const ELABORATION_BUDGET: usize = 1 << 18;

/// What is left of one design's [`ELABORATION_BUDGET`].
struct Budget(usize);

impl Budget {
    /// Takes `units` from the budget, or refuses the design.
    fn charge(&mut self, units: usize) -> Result<(), ParseVerilogError> {
        match self.0.checked_sub(units) {
            Some(left) => {
                self.0 = left;
                Ok(())
            }
            None => Err(ParseVerilogError::msg(format!(
                "design exceeds the elaboration budget of {ELABORATION_BUDGET} nodes \
                 (gnn4ip_hdl::ELABORATION_BUDGET)"
            ))),
        }
    }
}

/// Nodes of `expr`, itself included.
fn expr_nodes(expr: &Expr) -> usize {
    1 + match expr {
        Expr::Ident(_) | Expr::Number { .. } | Expr::Str(_) => 0,
        Expr::Unary { arg, .. } => expr_nodes(arg),
        Expr::Binary { lhs, rhs, .. }
        | Expr::Repeat {
            count: lhs,
            body: rhs,
        }
        | Expr::BitSelect {
            base: lhs,
            index: rhs,
        } => expr_nodes(lhs) + expr_nodes(rhs),
        Expr::Ternary {
            cond: a,
            then_e: b,
            else_e: c,
        }
        | Expr::PartSelect {
            base: a,
            msb: b,
            lsb: c,
        } => expr_nodes(a) + expr_nodes(b) + expr_nodes(c),
        Expr::Concat(parts) | Expr::Call { args: parts, .. } => parts.iter().map(expr_nodes).sum(),
    }
}

/// Nodes of `stmt`, itself included.
fn stmt_nodes(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::Block(ss) => ss.iter().map(stmt_nodes).sum(),
        Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
            expr_nodes(lhs) + expr_nodes(rhs)
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => expr_nodes(cond) + stmt_nodes(then_s) + else_s.as_deref().map_or(0, stmt_nodes),
        Stmt::Case { subject, arms } => {
            let arms: usize = arms
                .iter()
                .map(|(labels, body)| {
                    labels.iter().map(expr_nodes).sum::<usize>() + stmt_nodes(body)
                })
                .sum();
            expr_nodes(subject) + arms
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => expr_nodes(init) + expr_nodes(cond) + expr_nodes(step) + stmt_nodes(body),
        Stmt::Null => 0,
    }
}

/// Nodes of a declared range's two bounds.
fn range_nodes(range: &Option<Range>) -> usize {
    range
        .as_ref()
        .map_or(0, |r| expr_nodes(&r.msb) + expr_nodes(&r.lsb))
}

/// Nodes of `item`, itself included.
fn item_nodes(item: &Item) -> usize {
    1 + match item {
        Item::Decl { range, init, .. } => range_nodes(range) + init.as_ref().map_or(0, expr_nodes),
        Item::Param { value, .. } => expr_nodes(value),
        Item::Assign { lhs, rhs } => expr_nodes(lhs) + expr_nodes(rhs),
        Item::Always { sensitivity, body } => sensitivity.len() + stmt_nodes(body),
        Item::Initial(body) => stmt_nodes(body),
        Item::Gate(g) => g.conns.iter().map(expr_nodes).sum(),
        Item::Instance(inst) => {
            let overrides: usize = inst
                .param_overrides
                .iter()
                .map(|(_, e)| expr_nodes(e))
                .sum();
            let conns: usize = inst.conns.iter().flat_map(|(_, e)| e).map(expr_nodes).sum();
            overrides + conns
        }
    }
}

/// Nodes of `module`: its ports, parameters and items.
fn module_nodes(module: &Module) -> usize {
    let ports: usize = module.ports.iter().map(|p| 1 + range_nodes(&p.range)).sum();
    let params: usize = module.params.iter().map(|(_, e)| expr_nodes(e)).sum();
    ports + params + module.items.iter().map(item_nodes).sum::<usize>()
}

/// Evaluates a constant expression over an integer environment.
///
/// Used for parameter values, ranges, and for-loop bounds.
///
/// # Errors
///
/// Returns an error on unresolvable identifiers, division by zero, or
/// non-constant constructs.
pub fn eval_const(expr: &Expr, env: &HashMap<String, i64>) -> Result<i64, ParseVerilogError> {
    match expr {
        Expr::Number { value, .. } => Ok(*value as i64),
        Expr::Ident(name) => env.get(name).copied().ok_or_else(|| {
            ParseVerilogError::msg(format!("'{name}' is not a constant in this context"))
        }),
        Expr::Unary { op, arg } => {
            let v = eval_const(arg, env)?;
            Ok(match op {
                UnaryOp::Minus => -v,
                UnaryOp::Plus => v,
                UnaryOp::Not => i64::from(v == 0),
                UnaryOp::BitNot => !v,
                _ => {
                    return Err(ParseVerilogError::msg(
                        "reduction operator in constant expression",
                    ))
                }
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_const(lhs, env)?;
            let b = eval_const(rhs, env)?;
            Ok(match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div => {
                    if b == 0 {
                        return Err(ParseVerilogError::msg("division by zero in constant"));
                    }
                    a / b
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        return Err(ParseVerilogError::msg("modulo by zero in constant"));
                    }
                    a % b
                }
                BinaryOp::Pow => (a as f64).powi(b as i32) as i64,
                BinaryOp::Shl => a.wrapping_shl(b as u32),
                BinaryOp::Shr | BinaryOp::AShr => a.wrapping_shr(b as u32),
                BinaryOp::Lt => i64::from(a < b),
                BinaryOp::Gt => i64::from(a > b),
                BinaryOp::Le => i64::from(a <= b),
                BinaryOp::Ge => i64::from(a >= b),
                BinaryOp::Eq | BinaryOp::CaseEq => i64::from(a == b),
                BinaryOp::Neq | BinaryOp::CaseNeq => i64::from(a != b),
                BinaryOp::And => a & b,
                BinaryOp::Or => a | b,
                BinaryOp::Xor => a ^ b,
                BinaryOp::Xnor => !(a ^ b),
                BinaryOp::LogicalAnd => i64::from(a != 0 && b != 0),
                BinaryOp::LogicalOr => i64::from(a != 0 || b != 0),
            })
        }
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            if eval_const(cond, env)? != 0 {
                eval_const(then_e, env)
            } else {
                eval_const(else_e, env)
            }
        }
        _ => Err(ParseVerilogError::msg("non-constant expression")),
    }
}

/// Calls `f` on every identifier node of `expr`, in place.
fn for_each_ident(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match expr {
        Expr::Ident(_) => f(expr),
        Expr::Number { .. } | Expr::Str(_) => {}
        Expr::Unary { arg, .. } => for_each_ident(arg, f),
        Expr::Binary { lhs, rhs, .. }
        | Expr::Repeat {
            count: lhs,
            body: rhs,
        }
        | Expr::BitSelect {
            base: lhs,
            index: rhs,
        } => {
            for_each_ident(lhs, f);
            for_each_ident(rhs, f);
        }
        Expr::Ternary {
            cond: a,
            then_e: b,
            else_e: c,
        }
        | Expr::PartSelect {
            base: a,
            msb: b,
            lsb: c,
        } => {
            for_each_ident(a, f);
            for_each_ident(b, f);
            for_each_ident(c, f);
        }
        Expr::Concat(parts) | Expr::Call { args: parts, .. } => {
            parts.iter_mut().for_each(|p| for_each_ident(p, f));
        }
    }
}

/// Replaces parameter identifiers with their constant values throughout
/// an expression.
fn subst_expr(expr: &mut Expr, env: &HashMap<String, i64>) {
    if env.is_empty() {
        return;
    }
    for_each_ident(expr, &mut |e| {
        if let Expr::Ident(name) = e {
            if let Some(&v) = env.get(name.as_str()) {
                *e = Expr::Number {
                    width: None,
                    value: v as u64,
                };
            }
        }
    });
}

fn subst_stmt(stmt: &mut Stmt, env: &mut HashMap<String, i64>) {
    if env.is_empty() {
        return;
    }
    match stmt {
        Stmt::Block(ss) => ss.iter_mut().for_each(|s| subst_stmt(s, env)),
        Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
            subst_expr(lhs, env);
            subst_expr(rhs, env);
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            subst_expr(cond, env);
            subst_stmt(then_s, env);
            if let Some(s) = else_s {
                subst_stmt(s, env);
            }
        }
        Stmt::Case { subject, arms } => {
            subst_expr(subject, env);
            for (labels, body) in arms {
                labels.iter_mut().for_each(|l| subst_expr(l, env));
                subst_stmt(body, env);
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            subst_expr(init, env);
            // Shadow the loop variable: it is not a parameter inside the
            // loop. Removed and restored, not cloned: unrolling runs this
            // once per iteration, and a clone would copy every binding.
            let shadowed = env.remove_entry(var.as_str());
            subst_expr(cond, env);
            subst_expr(step, env);
            subst_stmt(body, env);
            if let Some((name, value)) = shadowed {
                env.insert(name, value);
            }
        }
        Stmt::Null => {}
    }
}

/// Renames every identifier in an expression via `f`; a call keeps its
/// callee name.
fn rename_expr(expr: &mut Expr, f: &impl Fn(&str) -> String) {
    for_each_ident(expr, &mut |e| {
        if let Expr::Ident(name) = e {
            *name = f(name);
        }
    });
}

fn rename_stmt(stmt: &mut Stmt, f: &impl Fn(&str) -> String) {
    match stmt {
        Stmt::Block(ss) => ss.iter_mut().for_each(|s| rename_stmt(s, f)),
        Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
            rename_expr(lhs, f);
            rename_expr(rhs, f);
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            rename_expr(cond, f);
            rename_stmt(then_s, f);
            if let Some(s) = else_s {
                rename_stmt(s, f);
            }
        }
        Stmt::Case { subject, arms } => {
            rename_expr(subject, f);
            for (labels, body) in arms {
                labels.iter_mut().for_each(|l| rename_expr(l, f));
                rename_stmt(body, f);
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            *var = f(var);
            rename_expr(init, f);
            rename_expr(cond, f);
            rename_expr(step, f);
            rename_stmt(body, f);
        }
        Stmt::Null => {}
    }
}

/// Flattens a design hierarchy into a single module.
///
/// Parameters are resolved to constants (defaults overridden per instance),
/// every submodule instance is inlined with `inst__signal` renaming, and port
/// connections become continuous assigns. For-loops with constant bounds are
/// unrolled.
///
/// `unit` is only borrowed, so the top module is cloned before it is
/// flattened; [`crate::elaborate`], which owns its unit, moves it instead.
///
/// # Errors
///
/// Returns an error on unknown modules, unresolvable parameters, cyclic
/// hierarchies (depth > 64), non-constant loop bounds, or a design past
/// the [`ELABORATION_BUDGET`].
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::{flatten, parse};
///
/// let unit = parse(
///     "module inv(input a, output y); assign y = ~a; endmodule
///      module top(input x, output z); inv u(.a(x), .y(z)); endmodule",
/// )?;
/// let flat = flatten(&unit, "top")?;
/// assert!(flat.items.iter().all(|i| !matches!(i, gnn4ip_hdl::Item::Instance(_))));
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn flatten(unit: &SourceUnit, top: &str) -> Result<Module, ParseVerilogError> {
    let top_mod = unit.module(top).ok_or_else(|| top_not_found(top))?;
    flatten_top(unit, top_mod.clone())
}

/// [`flatten`] of a unit the caller gives up: the top module is moved out
/// of it rather than cloned, unless the design instantiates the top
/// module itself (then elaboration needs it in the unit, and fails on the
/// cycle as [`flatten`] does).
pub(crate) fn flatten_owned(mut unit: SourceUnit, top: &str) -> Result<Module, ParseVerilogError> {
    let at = unit
        .modules
        .iter()
        .position(|m| m.name == top)
        .ok_or_else(|| top_not_found(top))?;
    let instantiated = unit
        .modules
        .iter()
        .flat_map(|m| &m.items)
        .any(|i| matches!(i, Item::Instance(inst) if inst.module == top));
    let top_mod = if instantiated {
        unit.modules[at].clone()
    } else {
        unit.modules.remove(at)
    };
    flatten_top(&unit, top_mod)
}

fn top_not_found(top: &str) -> ParseVerilogError {
    ParseVerilogError::msg(format!("module '{top}' not found"))
}

fn flatten_top(unit: &SourceUnit, top: Module) -> Result<Module, ParseVerilogError> {
    let mut env = HashMap::new();
    for (name, value) in &top.params {
        let v = eval_const(value, &env)?;
        env.insert(name.clone(), v);
    }
    flatten_module(unit, top, &env, 0, &mut Budget(ELABORATION_BUDGET))
}

/// Flattens `module`, whose parameters are bound in `params`, rewriting
/// its items in place.
fn flatten_module(
    unit: &SourceUnit,
    module: Module,
    params: &HashMap<String, i64>,
    depth: usize,
    budget: &mut Budget,
) -> Result<Module, ParseVerilogError> {
    if depth > 64 {
        return Err(ParseVerilogError::msg(
            "module hierarchy too deep (cyclic instantiation?)",
        ));
    }
    let mut env = params.clone();
    let mut out = Module {
        name: module.name,
        port_order: module.port_order,
        ports: Vec::with_capacity(module.ports.len()),
        params: Vec::new(),
        items: Vec::with_capacity(module.items.len()),
    };
    // resolve port ranges
    for mut p in module.ports {
        p.range = resolve_range(p.range, &env)?;
        out.ports.push(p);
    }
    for item in module.items {
        match item {
            Item::Param { name, value } => {
                let v = eval_const(&value, &env)?;
                env.insert(name, v);
            }
            Item::Decl {
                kind,
                name,
                range,
                mut init,
            } => {
                let range = resolve_range(range, &env)?;
                if let Some(e) = &mut init {
                    subst_expr(e, &env);
                }
                out.items.push(Item::Decl {
                    kind,
                    name,
                    range,
                    init,
                });
            }
            Item::Assign { mut lhs, mut rhs } => {
                subst_expr(&mut lhs, &env);
                subst_expr(&mut rhs, &env);
                out.items.push(Item::Assign { lhs, rhs });
            }
            Item::Always {
                sensitivity,
                mut body,
            } => {
                subst_stmt(&mut body, &mut env);
                unroll_fors(&mut body, &env, budget)?;
                out.items.push(Item::Always { sensitivity, body });
            }
            Item::Initial(mut body) => {
                subst_stmt(&mut body, &mut env);
                out.items.push(Item::Initial(body));
            }
            Item::Gate(mut g) => {
                g.conns.iter_mut().for_each(|c| subst_expr(c, &env));
                out.items.push(Item::Gate(g));
            }
            Item::Instance(inst) => {
                inline_instance(unit, &inst, &env, &mut out, depth, budget)?;
            }
        }
    }
    Ok(out)
}

/// A declared range with both bounds evaluated to constants.
fn resolve_range(
    range: Option<Range>,
    env: &HashMap<String, i64>,
) -> Result<Option<Range>, ParseVerilogError> {
    let Some(r) = range else { return Ok(None) };
    Ok(Some(Range {
        msb: Expr::number(eval_const(&r.msb, env)?.max(0) as u64),
        lsb: Expr::number(eval_const(&r.lsb, env)?.max(0) as u64),
    }))
}

/// Binds a child's parameters for one instance: each takes the value of
/// the last override that sets it — by name, or by position at its own
/// index — else its default, evaluated with the parent's parameters
/// substituted. Every matching override is evaluated, in list order, so
/// one that does not evaluate refuses the design even when a later one
/// wins. The named overrides are indexed once and each override is
/// evaluated once, so binding is linear in the two lists.
fn bind_params(
    params: &[(String, Expr)],
    overrides: &[(Option<String>, Expr)],
    env: &HashMap<String, i64>,
) -> Result<HashMap<String, i64>, ParseVerilogError> {
    let mut named: HashMap<&str, Vec<usize>> = HashMap::new();
    for (j, (name, _)) in overrides.iter().enumerate() {
        if let Some(name) = name {
            named.entry(name).or_default().push(j);
        }
    }
    let mut values: Vec<Option<i64>> = vec![None; overrides.len()];
    let mut bound = HashMap::with_capacity(params.len());
    for (i, (pname, pdefault)) in params.iter().enumerate() {
        let mut by_name = named.get(pname.as_str()).map_or(&[][..], Vec::as_slice);
        if let Some((&last, _)) = by_name.split_last() {
            // a name bound before had all of its overrides evaluated
            // then, so only the last one can matter again
            if values[last].is_some() {
                by_name = &by_name[by_name.len() - 1..];
            }
        }
        let by_position = overrides
            .get(i)
            .filter(|(name, _)| name.is_none())
            .map(|_| i);
        let (before, after) = by_name.split_at(by_name.partition_point(|&j| j < i));
        let mut value = None;
        for j in before
            .iter()
            .copied()
            .chain(by_position)
            .chain(after.iter().copied())
        {
            value = Some(match values[j] {
                Some(v) => v,
                None => *values[j].insert(eval_const(&overrides[j].1, env)?),
            });
        }
        let v = match value {
            Some(v) => v,
            None => {
                // the parent's parameters are substituted before the
                // child's defaults are evaluated
                let mut default = pdefault.clone();
                subst_expr(&mut default, env);
                eval_const(&default, &bound)?
            }
        };
        bound.insert(pname.clone(), v);
    }
    Ok(bound)
}

/// The connection each child port takes, as an index into `conns`: the
/// first one that names the port or sits at its position — its index in
/// the child's header `port_order`, or in `ports` when the child has no
/// header order. The connections are indexed once, so binding is linear
/// in the two lists.
fn bind_ports(
    ports: &[Port],
    port_order: &[String],
    conns: &[(Option<String>, Option<Expr>)],
) -> Vec<Option<usize>> {
    let mut first: HashMap<&str, usize> = HashMap::with_capacity(conns.len());
    for (j, (name, _)) in conns.iter().enumerate() {
        let port = match name {
            Some(name) => Some(name.as_str()),
            None => port_order.get(j).map(String::as_str),
        };
        if let Some(port) = port {
            first.entry(port).or_insert(j);
        }
    }
    ports
        .iter()
        .enumerate()
        .map(|(i, port)| {
            let headerless = port_order.is_empty() && conns.get(i).is_some_and(|c| c.0.is_none());
            let by_index = headerless.then_some(i);
            first
                .get(port.name.as_str())
                .copied()
                .into_iter()
                .chain(by_index)
                .min()
        })
        .collect()
}

fn inline_instance(
    unit: &SourceUnit,
    inst: &ModuleInstance,
    env: &HashMap<String, i64>,
    out: &mut Module,
    depth: usize,
    budget: &mut Budget,
) -> Result<(), ParseVerilogError> {
    let child = unit.module(&inst.module).ok_or_else(|| {
        ParseVerilogError::msg(format!(
            "module '{}' (instance '{}') not found",
            inst.module, inst.name
        ))
    })?;
    budget.charge(module_nodes(child))?;
    let child_params = bind_params(&child.params, &inst.param_overrides, env)?;
    let flat_child = flatten_module(unit, child.clone(), &child_params, depth + 1, budget)?;
    let prefix = format!("{}__", inst.name);
    let rename = |n: &str| format!("{prefix}{n}");
    // Every name this instance emits grows by `prefix`, and a deep
    // hierarchy of long instance names would grow them without adding
    // nodes, so each emitted node costs one more unit per 32 prefix bytes.
    let per_node = 1 + prefix.len() / 32;

    // Declare a net per child port and bridge to the parent expression.
    let bound = bind_ports(&flat_child.ports, &flat_child.port_order, &inst.conns);
    for (port, conn) in flat_child.ports.iter().zip(bound) {
        let conn = conn.and_then(|j| inst.conns[j].1.as_ref());
        let bridge = 1 + range_nodes(&port.range) + conn.map_or(0, |e| 1 + expr_nodes(e));
        budget.charge(bridge * per_node)?;
        out.items.push(Item::Decl {
            kind: NetKind::Wire,
            name: rename(&port.name),
            range: port.range.clone(),
            init: None,
        });
        if let Some(parent_expr) = conn {
            match port.dir {
                PortDir::Input => out.items.push(Item::Assign {
                    lhs: Expr::ident(rename(&port.name)),
                    rhs: parent_expr.clone(),
                }),
                PortDir::Output | PortDir::Inout => out.items.push(Item::Assign {
                    lhs: parent_expr.clone(),
                    rhs: Expr::ident(rename(&port.name)),
                }),
            }
        }
    }
    // Splice the child's items, renamed in place.
    for mut item in flat_child.items {
        budget.charge(item_nodes(&item) * per_node)?;
        match &mut item {
            Item::Decl { name, init, .. } => {
                *name = rename(name);
                if let Some(e) = init {
                    rename_expr(e, &rename);
                }
            }
            Item::Assign { lhs, rhs } => {
                rename_expr(lhs, &rename);
                rename_expr(rhs, &rename);
            }
            Item::Always { sensitivity, body } => {
                for s in sensitivity.iter_mut() {
                    match s {
                        SensItem::Posedge(n) | SensItem::Negedge(n) | SensItem::Level(n) => {
                            *n = rename(n);
                        }
                        SensItem::Star => {}
                    }
                }
                rename_stmt(body, &rename);
            }
            Item::Initial(body) => rename_stmt(body, &rename),
            Item::Gate(g) => {
                if let Some(n) = &mut g.name {
                    *n = rename(n);
                }
                g.conns.iter_mut().for_each(|c| rename_expr(c, &rename));
            }
            Item::Param { .. } | Item::Instance(_) => continue,
        }
        out.items.push(item);
    }
    Ok(())
}

/// Unrolls `for` statements with constant bounds into flat blocks, with the
/// loop variable substituted into the body on each iteration.
fn unroll_fors(
    stmt: &mut Stmt,
    env: &HashMap<String, i64>,
    budget: &mut Budget,
) -> Result<(), ParseVerilogError> {
    match stmt {
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            let unrolled = unroll_loop(var, init, cond, step, body, env, budget)?;
            *stmt = Stmt::Block(unrolled);
        }
        Stmt::Block(ss) => {
            for s in ss {
                unroll_fors(s, env, budget)?;
            }
        }
        Stmt::If { then_s, else_s, .. } => {
            unroll_fors(then_s, env, budget)?;
            if let Some(s) = else_s {
                unroll_fors(s, env, budget)?;
            }
        }
        Stmt::Case { arms, .. } => {
            for (_, body) in arms {
                unroll_fors(body, env, budget)?;
            }
        }
        Stmt::Blocking { .. } | Stmt::NonBlocking { .. } | Stmt::Null => {}
    }
    Ok(())
}

/// One unrolled copy of `body` per iteration of `for (var = init; cond;
/// var = step)`, each charged to `budget` before it is made.
fn unroll_loop(
    var: &str,
    init: &Expr,
    cond: &Expr,
    step: &Expr,
    body: &Stmt,
    env: &HashMap<String, i64>,
    budget: &mut Budget,
) -> Result<Vec<Stmt>, ParseVerilogError> {
    let per_iteration = stmt_nodes(body) + expr_nodes(cond) + expr_nodes(step);
    budget.charge(env.len())?;
    let mut iter_env = env.clone();
    let mut v = eval_const(init, env)?;
    let mut unrolled = Vec::new();
    loop {
        iter_env.insert(var.to_string(), v);
        if eval_const(cond, &iter_env)? == 0 {
            return Ok(unrolled);
        }
        budget.charge(per_iteration)?;
        let mut body_i = body.clone();
        subst_stmt(&mut body_i, &mut iter_env);
        unroll_fors(&mut body_i, &iter_env, budget)?;
        unrolled.push(body_i);
        v = eval_const(step, &iter_env)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn const_eval_arithmetic() {
        let env = HashMap::from([("N".to_string(), 8i64)]);
        let e = parse_expr("N*2-1");
        assert_eq!(eval_const(&e, &env).expect("const"), 15);
    }

    fn parse_expr(s: &str) -> Expr {
        let src = format!("module t(output [{s}:0] y); endmodule");
        let unit = parse(&src).expect("parses");
        match &unit.modules[0].ports[0].range {
            Some(r) => r.msb.clone(),
            None => panic!("no range"),
        }
    }

    #[test]
    fn flatten_single_level() {
        let unit = parse(
            "module inv(input a, output y); assign y = ~a; endmodule
             module top(input x, output z); inv u0(.a(x), .y(z)); endmodule",
        )
        .expect("parses");
        let flat = flatten(&unit, "top").expect("flattens");
        assert!(flat.items.iter().all(|i| !matches!(i, Item::Instance(_))));
        // child signals are prefixed
        let has_prefixed = flat
            .items
            .iter()
            .any(|i| matches!(i, Item::Decl { name, .. } if name.starts_with("u0__")));
        assert!(has_prefixed, "{:#?}", flat.items);
    }

    #[test]
    fn flatten_two_levels() {
        let unit = parse(
            "module inv(input a, output y); assign y = ~a; endmodule
             module pair(input a, output y);
               wire m;
               inv i1(.a(a), .y(m));
               inv i2(.a(m), .y(y));
             endmodule
             module top(input x, output z); pair p(.a(x), .y(z)); endmodule",
        )
        .expect("parses");
        let flat = flatten(&unit, "top").expect("flattens");
        let decl_names: Vec<&str> = flat
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Decl { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(decl_names.contains(&"p__m"), "{decl_names:?}");
        assert!(decl_names.contains(&"p__i1__a"), "{decl_names:?}");
    }

    #[test]
    fn flatten_resolves_parameters() {
        let unit = parse(
            "module w #(parameter N = 4)(input [N-1:0] a, output [N-1:0] y);
               assign y = a;
             endmodule
             module top(input [7:0] i, output [7:0] o);
               w #(.N(8)) u(.a(i), .y(o));
             endmodule",
        )
        .expect("parses");
        let flat = flatten(&unit, "top").expect("flattens");
        let port_range = flat
            .items
            .iter()
            .find_map(|i| match i {
                Item::Decl { name, range, .. } if name == "u__a" => range.clone(),
                _ => None,
            })
            .expect("u__a decl");
        assert_eq!(port_range.msb, Expr::number(7));
    }

    #[test]
    fn flatten_positional_connections() {
        let unit = parse(
            "module inv(input a, output y); assign y = ~a; endmodule
             module top(input x, output z); inv u0(x, z); endmodule",
        )
        .expect("parses");
        let flat = flatten(&unit, "top").expect("flattens");
        let bridges = flat
            .items
            .iter()
            .filter(|i| matches!(i, Item::Assign { .. }))
            .count();
        // input bridge + output bridge + internal assign
        assert_eq!(bridges, 3);
    }

    #[test]
    fn flatten_unknown_module_errors() {
        let unit = parse("module top(input x); ghost g(.a(x)); endmodule").expect("parses");
        assert!(flatten(&unit, "top").is_err());
    }

    #[test]
    fn unroll_for_loop() {
        let unit = parse(
            "module m(input [3:0] a, output reg [3:0] y);
               integer i;
               always @* begin
                 for (i = 0; i < 4; i = i + 1)
                   y[i] = a[3 - i];
               end
             endmodule",
        )
        .expect("parses");
        let flat = flatten(&unit, "m").expect("flattens");
        match &flat.items[1] {
            Item::Always {
                body: Stmt::Block(outer),
                ..
            } => match &outer[0] {
                Stmt::Block(iters) => {
                    assert_eq!(iters.len(), 4);
                    match &iters[2] {
                        Stmt::Blocking { lhs, .. } => match lhs {
                            Expr::BitSelect { index, .. } => {
                                assert_eq!(**index, Expr::number(2));
                            }
                            e => panic!("{e:?}"),
                        },
                        s => panic!("{s:?}"),
                    }
                }
                s => panic!("{s:?}"),
            },
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn gate_level_module_flattens_verbatim() {
        let unit = parse(
            "module fa(input a, input b, output s);
               xor (s, a, b);
             endmodule",
        )
        .expect("parses");
        let flat = flatten(&unit, "fa").expect("flattens");
        assert!(matches!(flat.items[0], Item::Gate(_)));
    }

    /// `elaborate` moves the top module out of its unit; `flatten` clones
    /// it. Both must agree, whether the top is moved (hierarchy,
    /// parameters, loops, a duplicate module name) or must stay in the unit
    /// (it instantiates itself).
    #[test]
    fn elaborate_matches_borrowed_flatten() {
        let sources = [
            "module w #(parameter N = 2)(input [N-1:0] a, output [N-1:0] y);
               integer i;
               reg [N-1:0] r;
               always @* for (i = 0; i < N; i = i + 1) r[i] = ~a[i];
               assign y = r;
             endmodule
             module top #(parameter M = 3)(input [M:0] x, output [M:0] z);
               w #(.N(M + 1)) u(.a(x), .y(z));
             endmodule",
            "module leaf(input a, output y); assign y = a; endmodule
             module top(input a, output y); leaf l(.a(a), .y(y)); endmodule
             module leaf(input a, output y); assign y = ~a; endmodule",
            "module top(input a, output y); top again(.a(a), .y(y)); endmodule",
        ];
        for src in sources {
            let unit = parse(src).expect("parses");
            assert_eq!(
                crate::elaborate(src, Some("top")),
                flatten(&unit, "top"),
                "{src}"
            );
        }
        assert_eq!(
            crate::elaborate(sources[0], Some("ghost")),
            flatten(&parse(sources[0]).expect("parses"), "ghost")
        );
    }

    /// The budget admits what `unroll_loop`'s old 4,096-iteration cap
    /// did, and charges name growth: a hierarchy whose long instance
    /// names prefix every inlined name is refused, while the same
    /// hierarchy under short names elaborates.
    #[test]
    fn budget_admits_long_loops_and_charges_name_growth() {
        let looped = "module m(input a, output reg [4095:0] y); integer i;
                      always @* for (i = 0; i < 4096; i = i + 1) y[i] = a;
                      endmodule";
        assert!(crate::elaborate(looped, None).is_ok());
        let chain = |inst: &str| {
            let mut src: String = (0..40)
                .map(|l| {
                    let c = l + 1;
                    format!(
                        "module m{l}(input a, output y); m{c} {inst}(.a(a), .y(y)); endmodule\n"
                    )
                })
                .collect();
            let leaf: String = (0..500).map(|i| format!("assign w{i} = a; ")).collect();
            src.push_str(&format!(
                "module m40(input a, output y); {leaf}assign y = a; endmodule\n"
            ));
            src
        };
        assert!(crate::elaborate(&chain("u"), Some("m0")).is_ok());
        let err =
            crate::elaborate(&chain(&"u".repeat(400)), Some("m0")).expect_err("past the budget");
        assert!(err.to_string().contains("elaboration budget"), "{err}");
    }

    #[test]
    fn cyclic_hierarchy_errors() {
        let unit = parse(
            "module a(input x, output y); b u(.x(x), .y(y)); endmodule
             module b(input x, output y); a u(.x(x), .y(y)); endmodule",
        )
        .expect("parses");
        assert!(flatten(&unit, "a").is_err());
    }

    /// The port scan `bind_ports` replaced: per port, the first
    /// connection that names it or sits at its position.
    fn reference_bind_ports(
        ports: &[Port],
        port_order: &[String],
        conns: &[(Option<String>, Option<Expr>)],
    ) -> Vec<Option<usize>> {
        let at = |i: usize, j: usize, port: &Port, name: &Option<String>| match name {
            Some(n) => n == &port.name,
            None => {
                port_order.get(j).map(String::as_str) == Some(port.name.as_str())
                    || (port_order.is_empty() && j == i)
            }
        };
        let ports = ports.iter().enumerate();
        ports
            .map(|(i, port)| (0..conns.len()).find(|&j| at(i, j, port, &conns[j].0)))
            .collect()
    }

    /// The override scan `bind_params` replaced: every parameter scans
    /// the whole override list, evaluating each match; the last wins.
    fn reference_bind_params(
        params: &[(String, Expr)],
        overrides: &[(Option<String>, Expr)],
        env: &HashMap<String, i64>,
    ) -> Result<HashMap<String, i64>, ParseVerilogError> {
        let mut child_params = HashMap::new();
        for (i, (pname, pdefault)) in params.iter().enumerate() {
            let mut value = None;
            for (j, (oname, oexpr)) in overrides.iter().enumerate() {
                let matches = match oname {
                    Some(n) => n == pname,
                    None => j == i,
                };
                if matches {
                    value = Some(eval_const(oexpr, env)?);
                }
            }
            let v = match value {
                Some(v) => v,
                None => {
                    let mut default = pdefault.clone();
                    subst_expr(&mut default, env);
                    eval_const(&default, &child_params)?
                }
            };
            child_params.insert(pname.clone(), v);
        }
        Ok(child_params)
    }

    /// A seeded xorshift stream for the generated binding lists.
    struct Lists(u64);

    impl Lists {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        /// A name from a small pool, so names repeat; `z` names nothing.
        fn name(&mut self) -> String {
            ["a", "b", "c", "d", "z"][self.below(5)].to_string()
        }
    }

    /// Indexed port binding picks the scan's connection for every port
    /// over generated connection lists: named, positional and mixed,
    /// duplicate names, names of no port, ports nothing connects, and
    /// header orders that are full, partial or absent.
    #[test]
    fn indexed_port_binding_matches_the_scan() {
        let mut rng = Lists(0x9E37_79B9_7F4A_7C15);
        for _ in 0..4000 {
            let ports: Vec<Port> = (0..rng.below(6))
                .map(|_| Port {
                    name: rng.name(),
                    dir: PortDir::Input,
                    is_reg: false,
                    range: None,
                })
                .collect();
            let port_order: Vec<String> = match rng.below(3) {
                0 => Vec::new(),
                1 => ports.iter().map(|p| p.name.clone()).collect(),
                _ => (0..rng.below(6)).map(|_| rng.name()).collect(),
            };
            let conns: Vec<(Option<String>, Option<Expr>)> = (0..rng.below(8))
                .map(|j| {
                    let name = (rng.below(2) == 0).then(|| rng.name());
                    let expr = (rng.below(4) > 0).then(|| Expr::ident(format!("n{j}")));
                    (name, expr)
                })
                .collect();
            assert_eq!(
                bind_ports(&ports, &port_order, &conns),
                reference_bind_ports(&ports, &port_order, &conns),
                "ports {ports:?} order {port_order:?} conns {conns:?}"
            );
        }
    }

    /// Indexed parameter binding gives the scan's values, or its error,
    /// over generated override lists: named, positional and mixed,
    /// repeated names in either list, names of no parameter, overrides
    /// and defaults that do not evaluate, and defaults that read earlier
    /// parameters.
    #[test]
    fn indexed_parameter_binding_matches_the_scan() {
        let mut rng = Lists(0xD1B5_4A32_D192_ED03);
        let env = HashMap::from([("W".to_string(), 7i64)]);
        let mut errors = 0;
        for _ in 0..4000 {
            let params: Vec<(String, Expr)> = (0..rng.below(6))
                .map(|i| {
                    let default = match rng.below(4) {
                        0 => Expr::ident(rng.name()),
                        1 => Expr::ident("W"),
                        _ => Expr::number(100 + i as u64),
                    };
                    (rng.name(), default)
                })
                .collect();
            let overrides: Vec<(Option<String>, Expr)> = (0..rng.below(8))
                .map(|j| {
                    let name = (rng.below(2) == 0).then(|| rng.name());
                    let expr = match rng.below(8) {
                        0 => Expr::ident(format!("bad{j}")),
                        1 => Expr::ident("W"),
                        _ => Expr::number(j as u64),
                    };
                    (name, expr)
                })
                .collect();
            let want = reference_bind_params(&params, &overrides, &env);
            errors += usize::from(want.is_err());
            assert_eq!(
                bind_params(&params, &overrides, &env),
                want,
                "params {params:?} overrides {overrides:?}"
            );
        }
        assert!(
            errors > 400,
            "the lists must exercise failing evaluations: {errors}"
        );
    }
}
