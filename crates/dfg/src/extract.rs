//! Data-flow analysis: flat module → per-signal data-flow trees, merged into
//! one design DFG (phases 3 and 4 of the paper's Fig. 2 pipeline).
//!
//! Each driven signal contributes a data-flow tree (its driving expression,
//! with `if`/`case` contexts materialized as `Branch`/`CaseItem` nodes, as
//! Pyverilog's dataflow analyzer does). Because operand identifiers resolve
//! to *shared* signal nodes, emitting all trees into one graph is exactly the
//! "merge graphs" phase: signal `t1` used by three expressions is one node
//! with three incoming dependency edges.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use gnn4ip_hdl::{
    BinaryOp, Expr, GateKind, Item, Module, NetKind, PortDir, SensItem, Stmt, UnaryOp,
};

use crate::graph::{Dfg, NodeId};
use crate::nodekind::NodeKind;

/// Extracts the merged (untrimmed) DFG of a flattened module.
///
/// Roots are the module's output ports. Run [`crate::trim`] afterwards to
/// drop unreachable subgraphs and collapse buffers — or use
/// [`crate::graph_from_verilog`] which runs the whole Fig. 2 pipeline.
///
/// # Examples
///
/// ```
/// use gnn4ip_dfg::extract;
/// use gnn4ip_hdl::elaborate;
///
/// let m = elaborate("module inv(input a, output y); assign y = ~a; endmodule", None)?;
/// let g = extract(&m);
/// assert_eq!(g.roots().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract(module: &Module) -> Dfg {
    Extractor::new(module).run()
}

struct Extractor<'m> {
    module: &'m Module,
    graph: Dfg,
    /// Signal name → node, keyed by names borrowed from the module.
    signal_nodes: HashMap<&'m str, NodeId>,
    const_nodes: HashMap<u64, NodeId>,
}

impl<'m> Extractor<'m> {
    fn new(module: &'m Module) -> Self {
        Self {
            module,
            graph: Dfg::new(&module.name),
            signal_nodes: HashMap::new(),
            const_nodes: HashMap::new(),
        }
    }

    fn run(mut self) -> Dfg {
        let module = self.module;
        // Declare signal nodes for ports first so outputs become roots with
        // stable low ids.
        for port in &module.ports {
            let kind = match port.dir {
                PortDir::Input => NodeKind::Input,
                PortDir::Output => NodeKind::Output,
                PortDir::Inout => NodeKind::Wire,
            };
            let id = self.graph.add_node(kind, port.name.clone());
            self.signal_nodes.insert(&port.name, id);
            if port.dir == PortDir::Output {
                self.graph.add_root(id);
            }
        }
        for item in &module.items {
            if let Item::Decl { kind, name, .. } = item {
                let nk = match kind {
                    NetKind::Wire => NodeKind::Wire,
                    NetKind::Reg | NetKind::Integer => NodeKind::Reg,
                };
                if let Entry::Vacant(slot) = self.signal_nodes.entry(name) {
                    slot.insert(self.graph.add_node(nk, name.clone()));
                }
            }
        }
        for item in &module.items {
            match item {
                Item::Decl {
                    name,
                    init: Some(e),
                    ..
                } => {
                    let target = self.signal(name);
                    let tree = self.expr_tree(e);
                    self.graph.add_edge(target, tree);
                }
                Item::Assign { lhs, rhs } => {
                    let tree = self.expr_tree(rhs);
                    self.drive(lhs, tree, &[]);
                }
                Item::Gate(g) => {
                    let kind = match g.kind {
                        GateKind::And => NodeKind::And,
                        GateKind::Or => NodeKind::Or,
                        GateKind::Nand => NodeKind::Nand,
                        GateKind::Nor => NodeKind::Nor,
                        GateKind::Xor => NodeKind::Xor,
                        GateKind::Xnor => NodeKind::Xnor,
                        GateKind::Not => NodeKind::Not,
                        GateKind::Buf => NodeKind::Buf,
                    };
                    let (outs, ins) = g.split_ports();
                    let op = self.graph.add_node(kind, g.kind.keyword());
                    for input in ins {
                        let t = self.expr_tree(input);
                        self.graph.add_edge(op, t);
                    }
                    for out in outs {
                        self.drive(out, op, &[]);
                    }
                }
                Item::Always { sensitivity, body } => {
                    let _ = sensitivity
                        .iter()
                        .any(|s| matches!(s, SensItem::Posedge(_) | SensItem::Negedge(_)));
                    let mut ctx = Vec::new();
                    self.stmt_tree(body, &mut ctx);
                }
                _ => {}
            }
        }
        self.graph
    }

    /// Node for a named signal, creating an implicit wire if undeclared.
    /// One hash of `name` either way.
    fn signal(&mut self, name: &'m str) -> NodeId {
        let graph = &mut self.graph;
        *self
            .signal_nodes
            .entry(name)
            .or_insert_with(|| graph.add_node(NodeKind::Wire, name.to_owned()))
    }

    fn constant(&mut self, value: u64) -> NodeId {
        let graph = &mut self.graph;
        *self
            .const_nodes
            .entry(value)
            .or_insert_with(|| graph.add_node(NodeKind::Constant, value.to_string()))
    }

    /// Connects an assignment target to its driver tree under a condition
    /// context, materializing `Branch` nodes for the context.
    fn drive(&mut self, lhs: &'m Expr, driver: NodeId, ctx: &[NodeId]) {
        let driver = if ctx.is_empty() {
            driver
        } else {
            let branch = self.graph.add_node(NodeKind::Branch, "branch");
            for &c in ctx {
                self.graph.add_edge(branch, c);
            }
            self.graph.add_edge(branch, driver);
            branch
        };
        match lhs {
            Expr::Ident(name) => {
                let target = self.signal(name);
                self.graph.add_edge(target, driver);
            }
            Expr::BitSelect { base, index } => {
                let sel = self.graph.add_node(NodeKind::BitSelect, "bitsel=");
                let idx = self.expr_tree(index);
                self.graph.add_edge(sel, idx);
                self.graph.add_edge(sel, driver);
                self.drive(base, sel, &[]);
            }
            Expr::PartSelect { base, msb, lsb } => {
                let sel = self.graph.add_node(NodeKind::PartSelect, "partsel=");
                let m = self.expr_tree(msb);
                let l = self.expr_tree(lsb);
                self.graph.add_edge(sel, m);
                self.graph.add_edge(sel, l);
                self.graph.add_edge(sel, driver);
                self.drive(base, sel, &[]);
            }
            Expr::Concat(parts) => {
                for part in parts {
                    let sel = self.graph.add_node(NodeKind::PartSelect, "split");
                    self.graph.add_edge(sel, driver);
                    self.drive(part, sel, &[]);
                }
            }
            // Degenerate targets: attach to each referenced signal.
            other => {
                for name in other.idents() {
                    let target = self.signal(name);
                    self.graph.add_edge(target, driver);
                }
            }
        }
    }

    fn stmt_tree(&mut self, stmt: &'m Stmt, ctx: &mut Vec<NodeId>) {
        match stmt {
            Stmt::Block(ss) => {
                for s in ss {
                    self.stmt_tree(s, ctx);
                }
            }
            Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
                let tree = self.expr_tree(rhs);
                self.drive(lhs, tree, ctx);
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let c = self.expr_tree(cond);
                ctx.push(c);
                self.stmt_tree(then_s, ctx);
                ctx.pop();
                if let Some(e) = else_s {
                    let notc = self.graph.add_node(NodeKind::LogicalNot, "!cond");
                    self.graph.add_edge(notc, c);
                    ctx.push(notc);
                    self.stmt_tree(e, ctx);
                    ctx.pop();
                }
            }
            Stmt::Case { subject, arms } => {
                let subj = self.expr_tree(subject);
                for (labels, body) in arms {
                    let item = self.graph.add_node(NodeKind::CaseItem, "case");
                    self.graph.add_edge(item, subj);
                    for l in labels {
                        let lt = self.expr_tree(l);
                        self.graph.add_edge(item, lt);
                    }
                    ctx.push(item);
                    self.stmt_tree(body, ctx);
                    ctx.pop();
                }
            }
            Stmt::For { .. } => {
                // Loops are unrolled by elaboration; a residual loop (non-
                // constant bounds) is approximated by analyzing its body once
                // without the loop context.
                if let Stmt::For { body, .. } = stmt {
                    self.stmt_tree(body, ctx);
                }
            }
            Stmt::Null => {}
        }
    }

    fn expr_tree(&mut self, expr: &'m Expr) -> NodeId {
        match expr {
            Expr::Ident(name) => self.signal(name),
            Expr::Number { value, .. } => self.constant(*value),
            Expr::Str(s) => {
                let id = self.graph.add_node(NodeKind::Constant, format!("\"{s}\""));
                id
            }
            Expr::Unary { op, arg } => {
                let kind = match op {
                    UnaryOp::Not => NodeKind::LogicalNot,
                    UnaryOp::BitNot => NodeKind::BitNot,
                    UnaryOp::Plus => return self.expr_tree(arg),
                    UnaryOp::Minus => NodeKind::Neg,
                    UnaryOp::ReduceAnd => NodeKind::RedAnd,
                    UnaryOp::ReduceOr => NodeKind::RedOr,
                    UnaryOp::ReduceXor => NodeKind::RedXor,
                    UnaryOp::ReduceNand => NodeKind::RedNand,
                    UnaryOp::ReduceNor => NodeKind::RedNor,
                    UnaryOp::ReduceXnor => NodeKind::RedXnor,
                };
                let id = self.graph.add_node(kind, kind.label());
                let a = self.expr_tree(arg);
                self.graph.add_edge(id, a);
                id
            }
            Expr::Binary { op, lhs, rhs } => {
                let kind = match op {
                    BinaryOp::Add => NodeKind::Add,
                    BinaryOp::Sub => NodeKind::Sub,
                    BinaryOp::Mul => NodeKind::Mul,
                    BinaryOp::Div => NodeKind::Div,
                    BinaryOp::Mod => NodeKind::Mod,
                    BinaryOp::Pow => NodeKind::Pow,
                    BinaryOp::Shl => NodeKind::Shl,
                    BinaryOp::Shr | BinaryOp::AShr => NodeKind::Shr,
                    BinaryOp::Lt => NodeKind::Lt,
                    BinaryOp::Gt => NodeKind::Gt,
                    BinaryOp::Le => NodeKind::Le,
                    BinaryOp::Ge => NodeKind::Ge,
                    BinaryOp::Eq | BinaryOp::CaseEq => NodeKind::Eq,
                    BinaryOp::Neq | BinaryOp::CaseNeq => NodeKind::Neq,
                    BinaryOp::And => NodeKind::And,
                    BinaryOp::Or => NodeKind::Or,
                    BinaryOp::Xor => NodeKind::Xor,
                    BinaryOp::Xnor => NodeKind::Xnor,
                    BinaryOp::LogicalAnd => NodeKind::LogicalAnd,
                    BinaryOp::LogicalOr => NodeKind::LogicalOr,
                };
                let id = self.graph.add_node(kind, kind.label());
                let l = self.expr_tree(lhs);
                let r = self.expr_tree(rhs);
                self.graph.add_edge(id, l);
                self.graph.add_edge(id, r);
                id
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let id = self.graph.add_node(NodeKind::Branch, "?:");
                let c = self.expr_tree(cond);
                let t = self.expr_tree(then_e);
                let e = self.expr_tree(else_e);
                self.graph.add_edge(id, c);
                self.graph.add_edge(id, t);
                self.graph.add_edge(id, e);
                id
            }
            Expr::Concat(parts) => {
                let id = self.graph.add_node(NodeKind::Concat, "concat");
                for p in parts {
                    let t = self.expr_tree(p);
                    self.graph.add_edge(id, t);
                }
                id
            }
            Expr::Repeat { count, body } => {
                let id = self.graph.add_node(NodeKind::Repeat, "repeat");
                let c = self.expr_tree(count);
                let b = self.expr_tree(body);
                self.graph.add_edge(id, c);
                self.graph.add_edge(id, b);
                id
            }
            Expr::BitSelect { base, index } => {
                let id = self.graph.add_node(NodeKind::BitSelect, "bitsel");
                let b = self.expr_tree(base);
                let i = self.expr_tree(index);
                self.graph.add_edge(id, b);
                self.graph.add_edge(id, i);
                id
            }
            Expr::PartSelect { base, msb, lsb } => {
                let id = self.graph.add_node(NodeKind::PartSelect, "partsel");
                let b = self.expr_tree(base);
                let m = self.expr_tree(msb);
                let l = self.expr_tree(lsb);
                self.graph.add_edge(id, b);
                self.graph.add_edge(id, m);
                self.graph.add_edge(id, l);
                id
            }
            Expr::Call { name, args } => {
                let id = self.graph.add_node(NodeKind::Call, name.clone());
                for a in args {
                    let t = self.expr_tree(a);
                    self.graph.add_edge(id, t);
                }
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_hdl::elaborate;

    fn graph_of(src: &str) -> Dfg {
        extract(&elaborate(src, None).expect("elaborates"))
    }

    #[test]
    fn assign_creates_dependency_chain() {
        let g = graph_of("module inv(input a, output y); assign y = ~a; endmodule");
        // y(root) -> bitnot -> a
        assert_eq!(g.roots().len(), 1);
        let y = g.roots()[0];
        let deps: Vec<_> = g.deps(y).collect();
        assert_eq!(deps.len(), 1);
        assert_eq!(g.node(deps[0]).kind, NodeKind::BitNot);
        let inner: Vec<_> = g.deps(deps[0]).collect();
        assert_eq!(g.node(inner[0]).kind, NodeKind::Input);
    }

    #[test]
    fn signal_nodes_are_shared_across_uses() {
        let g = graph_of(
            "module m(input a, output x, output y);
               assign x = a & a;
               assign y = ~a;
             endmodule",
        );
        let input_count = g
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Input)
            .count();
        assert_eq!(input_count, 1, "merge phase must share signal nodes");
    }

    #[test]
    fn constants_are_deduplicated() {
        let g = graph_of(
            "module m(input a, output x, output y);
               assign x = a ^ 1'b1;
               assign y = a | 1'b1;
             endmodule",
        );
        let consts = g
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Constant)
            .count();
        assert_eq!(consts, 1);
    }

    #[test]
    fn if_context_becomes_branch_node() {
        let g = graph_of(
            "module m(input c, input d, output reg q);
               always @* begin
                 if (c) q = d; else q = ~d;
               end
             endmodule",
        );
        let branches = g
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Branch)
            .count();
        assert_eq!(branches, 2, "one branch per conditioned assignment");
        let lnot = g
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::LogicalNot)
            .count();
        assert!(lnot >= 1, "else context is negated condition");
    }

    #[test]
    fn case_context_becomes_caseitem_nodes() {
        let g = graph_of(
            "module m(input [1:0] s, input a, input b, output reg y);
               always @* case (s)
                 2'd0: y = a;
                 2'd1: y = b;
                 default: y = 1'b0;
               endcase
             endmodule",
        );
        let items = g
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::CaseItem)
            .count();
        assert_eq!(items, 3);
    }

    #[test]
    fn gates_map_to_operator_nodes() {
        let g = graph_of(
            "module fa(input a, input b, input cin, output sum, output cout);
               wire t1, t2, t3;
               xor (t1, a, b);
               and (t2, a, b);
               and (t3, t1, cin);
               xor (sum, t1, cin);
               or (cout, t3, t2);
             endmodule",
        );
        let h = g.kind_histogram();
        assert_eq!(h[NodeKind::Xor.index()], 2);
        assert_eq!(h[NodeKind::And.index()], 2);
        assert_eq!(h[NodeKind::Or.index()], 1);
        assert_eq!(g.roots().len(), 2);
    }

    #[test]
    fn ternary_is_branch() {
        let g = graph_of(
            "module m(input s, input a, input b, output y);
               assign y = s ? a : b;
             endmodule",
        );
        assert_eq!(g.kind_histogram()[NodeKind::Branch.index()], 1);
    }

    #[test]
    fn concat_lvalue_splits_driver() {
        let g = graph_of(
            "module m(input [1:0] a, output x, output y);
               assign {x, y} = a;
             endmodule",
        );
        // both outputs reach the input through their split nodes
        let mask = g.reachable_from_roots();
        let a_id = g
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::Input)
            .expect("input");
        assert!(mask[a_id]);
    }

    #[test]
    fn undeclared_signals_become_wires() {
        let g = graph_of(
            "module m(input a, output y);
               assign t = ~a;
               assign y = t;
             endmodule",
        );
        let wires = g
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Wire && n.label == "t")
            .count();
        assert_eq!(wires, 1);
    }

    #[test]
    fn two_adder_codings_share_no_structure_but_same_roots() {
        // the motivating example of Fig. 1: RTL vs gate-level full adder
        let rtl = graph_of(
            "module fa(input a, input b, input cin, output reg sum, output reg cout);
               always @(a, b, cin) begin
                 sum <= (a ^ b) ^ cin;
                 cout <= ((a ^ b) && cin) || (a && b);
               end
             endmodule",
        );
        let gates = graph_of(
            "module fa(input a, input b, input cin, output sum, output cout);
               wire t1, t2, t3;
               xor (t1, a, b);
               and (t2, a, b);
               and (t3, t1, cin);
               xor (sum, t1, cin);
               or (cout, t3, t2);
             endmodule",
        );
        assert_eq!(rtl.roots().len(), gates.roots().len());
        assert_ne!(rtl.node_count(), gates.node_count());
    }
}
