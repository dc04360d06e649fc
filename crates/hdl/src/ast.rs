//! Abstract syntax tree for the Verilog-2001 subset.
//!
//! The tree is deliberately close to the grammar: the data-flow analyzer in
//! `gnn4ip-dfg` walks it directly, mirroring Pyverilog's parser → dataflow
//! split in the paper's Fig. 2 pipeline.

use std::fmt;

/// A parsed source file: one or more module definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceUnit {
    /// Modules in declaration order.
    pub modules: Vec<Module>,
}

impl SourceUnit {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The module that is not instantiated by any other (the design root).
    ///
    /// Falls back to the last module when every module is instantiated
    /// somewhere (e.g. in pathological cyclic inputs).
    pub fn top_module(&self) -> Option<&Module> {
        let instantiated: std::collections::HashSet<&str> = self
            .modules
            .iter()
            .flat_map(|m| m.items.iter())
            .filter_map(|i| match i {
                Item::Instance(inst) => Some(inst.module.as_str()),
                _ => None,
            })
            .collect();
        self.modules
            .iter()
            .find(|m| !instantiated.contains(m.name.as_str()))
            .or_else(|| self.modules.last())
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDir::Input => "input",
            PortDir::Output => "output",
            PortDir::Inout => "inout",
        })
    }
}

/// Net kind of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// `wire`
    Wire,
    /// `reg`
    Reg,
    /// `integer`
    Integer,
}

/// An optional `[msb:lsb]` range; both bounds are constant expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// Most-significant bound.
    pub msb: Expr,
    /// Least-significant bound.
    pub lsb: Expr,
}

/// A module definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Header port order (names only; directions live in `ports`).
    pub port_order: Vec<String>,
    /// Port declarations (ANSI or non-ANSI style, normalized).
    pub ports: Vec<Port>,
    /// Parameters with default values.
    pub params: Vec<(String, Expr)>,
    /// Body items.
    pub items: Vec<Item>,
}

impl Module {
    /// Names of all output ports, in declaration order.
    pub fn outputs(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Names of all input ports, in declaration order.
    pub fn inputs(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Input)
            .map(|p| p.name.as_str())
            .collect()
    }
}

/// A normalized port declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// `reg` outputs are marked.
    pub is_reg: bool,
    /// Optional bit range.
    pub range: Option<Range>,
}

/// A module body item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `wire`/`reg`/`integer` declaration (one per name after
    /// normalization).
    Decl {
        /// Net kind.
        kind: NetKind,
        /// Declared name.
        name: String,
        /// Optional bit range.
        range: Option<Range>,
        /// Optional initializer (`wire w = expr;`).
        init: Option<Expr>,
    },
    /// `localparam`/`parameter` inside the body.
    Param {
        /// Parameter name.
        name: String,
        /// Constant value expression.
        value: Expr,
    },
    /// `assign lhs = rhs;`
    Assign {
        /// Left-hand side (identifier, bit/part select, or concat).
        lhs: Expr,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `always @(...) stmt`
    Always {
        /// Sensitivity list; empty means `@*`.
        sensitivity: Vec<SensItem>,
        /// Body statement.
        body: Stmt,
    },
    /// `initial stmt` (kept for completeness; ignored by dataflow).
    Initial(Stmt),
    /// Gate primitive instance, e.g. `xor g1(o, a, b);`.
    Gate(GateInstance),
    /// Module instance.
    Instance(ModuleInstance),
}

/// Gate primitive types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum GateKind {
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
}

impl GateKind {
    /// Lowercase Verilog keyword for this gate.
    pub fn keyword(self) -> &'static str {
        match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A gate primitive instance. For `and`/`or`/... the first connection is the
/// output; for `not`/`buf` every connection except the last is an output.
#[derive(Debug, Clone, PartialEq)]
pub struct GateInstance {
    /// Gate type.
    pub kind: GateKind,
    /// Optional instance name.
    pub name: Option<String>,
    /// Connections in source order.
    pub conns: Vec<Expr>,
}

impl GateInstance {
    /// `(outputs, inputs)` split according to the gate's port convention,
    /// as two slices of [`GateInstance::conns`].
    pub fn split_ports(&self) -> (&[Expr], &[Expr]) {
        let n = self.conns.len();
        let outputs = match self.kind {
            GateKind::Not | GateKind::Buf if n >= 2 => n - 1,
            GateKind::Not | GateKind::Buf => n,
            _ => n.min(1),
        };
        self.conns.split_at(outputs)
    }
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleInstance {
    /// Instantiated module name.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Parameter overrides `#(...)` — named or positional.
    pub param_overrides: Vec<(Option<String>, Expr)>,
    /// Port connections — named `.p(e)` or positional.
    pub conns: Vec<(Option<String>, Option<Expr>)>,
}

/// One entry of a sensitivity list.
#[derive(Debug, Clone, PartialEq)]
pub enum SensItem {
    /// `posedge sig`
    Posedge(String),
    /// `negedge sig`
    Negedge(String),
    /// plain `sig`
    Level(String),
    /// `*`
    Star,
}

/// A behavioral statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin ... end`
    Block(Vec<Stmt>),
    /// Blocking `lhs = rhs;`
    Blocking {
        /// Target.
        lhs: Expr,
        /// Value.
        rhs: Expr,
    },
    /// Non-blocking `lhs <= rhs;`
    NonBlocking {
        /// Target.
        lhs: Expr,
        /// Value.
        rhs: Expr,
    },
    /// `if (cond) then_s [else else_s]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_s: Box<Stmt>,
        /// Optional else branch.
        else_s: Option<Box<Stmt>>,
    },
    /// `case (subject) arms endcase` (also casex/casez).
    Case {
        /// Switch subject.
        subject: Expr,
        /// `(labels, body)` arms; empty labels = `default`.
        arms: Vec<(Vec<Expr>, Stmt)>,
    },
    /// `for (init; cond; step) body` — bounded loops only.
    For {
        /// Loop variable.
        var: String,
        /// Initial value.
        init: Expr,
        /// Continuation condition.
        cond: Expr,
        /// Step assignment value (`var = step`).
        step: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// Empty statement `;` or ignored system task call.
    Null,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,        // !
    BitNot,     // ~
    Plus,       // +
    Minus,      // -
    ReduceAnd,  // &
    ReduceOr,   // |
    ReduceXor,  // ^
    ReduceNand, // ~&
    ReduceNor,  // ~|
    ReduceXnor, // ~^
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    Shl,
    Shr,
    AShr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Neq,
    CaseEq,
    CaseNeq,
    And,        // &
    Or,         // |
    Xor,        // ^
    Xnor,       // ^~
    LogicalAnd, // &&
    LogicalOr,  // ||
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Identifier reference.
    Ident(String),
    /// Numeric literal with optional declared width.
    Number {
        /// Declared width, if given.
        width: Option<u32>,
        /// Value (x/z as 0).
        value: u64,
    },
    /// String literal.
    Str(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        arg: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Ternary `cond ? t : f`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// True branch.
        then_e: Box<Expr>,
        /// False branch.
        else_e: Box<Expr>,
    },
    /// Concatenation `{a, b, c}`.
    Concat(Vec<Expr>),
    /// Repeat `{n{expr}}`.
    Repeat {
        /// Repetition count.
        count: Box<Expr>,
        /// Repeated expression.
        body: Box<Expr>,
    },
    /// Bit select `sig[i]`.
    BitSelect {
        /// Base expression.
        base: Box<Expr>,
        /// Index.
        index: Box<Expr>,
    },
    /// Part select `sig[m:l]`.
    PartSelect {
        /// Base expression.
        base: Box<Expr>,
        /// MSB.
        msb: Box<Expr>,
        /// LSB.
        lsb: Box<Expr>,
    },
    /// Function or system call (arguments analyzed, callee opaque).
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for an identifier.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Convenience constructor for an unsized number.
    pub fn number(value: u64) -> Expr {
        Expr::Number { width: None, value }
    }

    /// All identifier names referenced anywhere in this expression.
    pub fn idents(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_idents(&mut out);
        out
    }

    fn collect_idents<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Ident(n) => out.push(n),
            Expr::Number { .. } | Expr::Str(_) => {}
            Expr::Unary { arg, .. } => arg.collect_idents(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_idents(out);
                rhs.collect_idents(out);
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                cond.collect_idents(out);
                then_e.collect_idents(out);
                else_e.collect_idents(out);
            }
            Expr::Concat(parts) => parts.iter().for_each(|p| p.collect_idents(out)),
            Expr::Repeat { count, body } => {
                count.collect_idents(out);
                body.collect_idents(out);
            }
            Expr::BitSelect { base, index } => {
                base.collect_idents(out);
                index.collect_idents(out);
            }
            Expr::PartSelect { base, msb, lsb } => {
                base.collect_idents(out);
                msb.collect_idents(out);
                lsb.collect_idents(out);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| a.collect_idents(out)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_walks_whole_tree() {
        let e = Expr::Ternary {
            cond: Box::new(Expr::ident("c")),
            then_e: Box::new(Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(Expr::ident("a")),
                rhs: Box::new(Expr::number(1)),
            }),
            else_e: Box::new(Expr::Concat(vec![Expr::ident("b"), Expr::ident("a")])),
        };
        assert_eq!(e.idents(), vec!["c", "a", "b", "a"]);
    }

    #[test]
    fn gate_port_split_conventions() {
        let and = GateInstance {
            kind: GateKind::And,
            name: None,
            conns: vec![Expr::ident("o"), Expr::ident("a"), Expr::ident("b")],
        };
        let (outs, ins) = and.split_ports();
        assert_eq!(outs.len(), 1);
        assert_eq!(ins.len(), 2);

        let buf = GateInstance {
            kind: GateKind::Buf,
            name: None,
            conns: vec![Expr::ident("o1"), Expr::ident("o2"), Expr::ident("i")],
        };
        let (outs, ins) = buf.split_ports();
        assert_eq!(outs.len(), 2);
        assert_eq!(ins.len(), 1);
    }

    #[test]
    fn top_module_prefers_uninstantiated() {
        let leaf = Module {
            name: "leaf".into(),
            port_order: vec![],
            ports: vec![],
            params: vec![],
            items: vec![],
        };
        let mut top = leaf.clone();
        top.name = "top".into();
        top.items.push(Item::Instance(ModuleInstance {
            module: "leaf".into(),
            name: "u0".into(),
            param_overrides: vec![],
            conns: vec![],
        }));
        let unit = SourceUnit {
            modules: vec![leaf, top],
        };
        assert_eq!(unit.top_module().expect("top").name, "top");
    }

    #[test]
    fn module_port_queries() {
        let m = Module {
            name: "m".into(),
            port_order: vec!["a".into(), "y".into()],
            ports: vec![
                Port {
                    name: "a".into(),
                    dir: PortDir::Input,
                    is_reg: false,
                    range: None,
                },
                Port {
                    name: "y".into(),
                    dir: PortDir::Output,
                    is_reg: true,
                    range: None,
                },
            ],
            params: vec![],
            items: vec![],
        };
        assert_eq!(m.inputs(), vec!["a"]);
        assert_eq!(m.outputs(), vec!["y"]);
    }
}
