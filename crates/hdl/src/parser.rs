//! Recursive-descent parser for the Verilog-2001 subset — phase 2 of the
//! Fig. 2 pipeline (the Pyverilog parser substitute).
//!
//! The parser owns the token vector and reads every token in place; a
//! token's text is copied into a `String` only when an AST node keeps it.
//! Nesting is bounded by [`MAX_NESTING`], so hostile input gets an error
//! instead of overflowing the stack.

use crate::ast::*;
use crate::token::{Keyword, Punct, Span, Spanned, Token};
use crate::{lex, ParseVerilogError};

/// The deepest nesting [`parse`] accepts. Two counts must stay within it:
/// the levels the parser has open, one per statement, sub-expression
/// (parenthesised, or an operand of a concatenation, select, call or
/// ternary branch) and unary operator it is inside; and, wherever it
/// builds a node of the syntax tree, those open levels plus the node's
/// height, one per operator, unary, select, concatenation, call or
/// ternary node from it down to a leaf. Parentheses add no node, so they
/// count only while they are open. A flat chain `a ^ b ^ c` is as deep as
/// it has operators, and each `else if` opens one statement more.
///
/// Past it, [`parse`] returns a [`ParseVerilogError`]. The limit keeps the
/// parser's recursion, and the recursive walks over the tree it builds
/// (elaboration, data-flow extraction, drop), inside a 2 MiB thread stack,
/// in debug builds too, where the costliest accepted shape (nested `case`
/// statements) takes about 1.1 MiB.
///
/// Measured by this count, `rtl_designs(1000, Medium)` nests at most 18
/// levels and 32 seeded `vary_design` disguises of each design 56;
/// `netlist_designs(200, 250)` and its obfuscations nest 1. The limit is
/// 4.6x the deepest of them. Larger RTL nests deeper: `rtl_designs(1000,
/// Large)` reaches 46 and 8 disguises of each 134, half the limit, and the
/// instances of `CorpusSpec::rtl_paper` 79.
pub const MAX_NESTING: usize = 256;

/// Parses preprocessed Verilog source into a [`SourceUnit`].
///
/// # Errors
///
/// Returns a [`ParseVerilogError`] with a source location on any lexical or
/// syntactic problem, and on nesting deeper than [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::parse;
///
/// let unit = parse("module inv(input a, output y); assign y = ~a; endmodule")?;
/// assert_eq!(unit.modules[0].name, "inv");
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn parse(source: &str) -> Result<SourceUnit, ParseVerilogError> {
    let tokens = lex(source)?;
    Parser::new(tokens).source_unit()
}

/// An expression with its height: the longest path from it down to a
/// leaf, which is 0 high.
type Tall = (Expr, usize);

struct Parser<'s> {
    toks: Vec<Spanned<'s>>,
    pos: usize,
    /// Nesting levels open on the path being parsed.
    depth: usize,
    /// Binary operators still waiting for their right operand, each with
    /// its precedence and left operand; see [`Parser::binary`].
    pending: Vec<(u8, BinaryOp, Tall)>,
}

impl<'s> Parser<'s> {
    fn new(toks: Vec<Spanned<'s>>) -> Self {
        Self {
            toks,
            pos: 0,
            depth: 0,
            pending: Vec::new(),
        }
    }

    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(Span::default(), |s| s.span)
    }

    fn peek(&self) -> Option<&Token<'s>> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn bump(&mut self) {
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), Some(Token::Punct(q)) if *q == p)
    }

    fn at_kw(&self, k: Keyword) -> bool {
        matches!(self.peek(), Some(Token::Kw(q)) if *q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.at_kw(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseVerilogError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{p}'")))
        }
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<(), ParseVerilogError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {k:?}")))
        }
    }

    /// Consumes an identifier and returns its source text.
    fn expect_ident(&mut self) -> Result<&'s str, ParseVerilogError> {
        match self.peek() {
            Some(&Token::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseVerilogError {
        let got = match self.peek() {
            Some(t) => format!("{t:?}"),
            None => "end of input".to_string(),
        };
        ParseVerilogError::at(self.span(), format!("expected {wanted}, found {got}"))
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseVerilogError>,
    ) -> Result<T, ParseVerilogError> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// `expr` as a node one level above children at most `below` high.
    fn node(&self, expr: Expr, below: usize) -> Result<Tall, ParseVerilogError> {
        let height = below + 1;
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((expr, height))
    }

    fn too_deep(&self) -> ParseVerilogError {
        ParseVerilogError::at(
            self.span(),
            format!("nesting deeper than {MAX_NESTING} levels"),
        )
    }

    // ---------------------------------------------------------- top level

    fn source_unit(mut self) -> Result<SourceUnit, ParseVerilogError> {
        let mut modules = Vec::new();
        while self.peek().is_some() {
            if self.at_kw(Keyword::Module) {
                modules.push(self.module()?);
            } else {
                return Err(self.unexpected("'module'"));
            }
        }
        Ok(SourceUnit { modules })
    }

    fn module(&mut self) -> Result<Module, ParseVerilogError> {
        self.expect_kw(Keyword::Module)?;
        let name = self.expect_ident()?.to_string();
        let mut module = Module {
            name,
            port_order: Vec::new(),
            ports: Vec::new(),
            params: Vec::new(),
            items: Vec::new(),
        };
        // #(parameter N = 1, ...)
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            loop {
                self.eat_kw(Keyword::Parameter);
                // optional range on parameter — skip
                self.skip_optional_range()?;
                let pname = self.expect_ident()?.to_string();
                self.expect_punct(Punct::Assign)?;
                let value = self.expr()?;
                module.params.push((pname, value));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        // port list
        if self.eat_punct(Punct::LParen) {
            if !self.at_punct(Punct::RParen) {
                self.port_list(&mut module)?;
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::Semi)?;
        while !self.at_kw(Keyword::Endmodule) {
            if self.peek().is_none() {
                return Err(self.unexpected("'endmodule'"));
            }
            self.item(&mut module)?;
        }
        self.expect_kw(Keyword::Endmodule)?;
        Ok(module)
    }

    fn skip_optional_range(&mut self) -> Result<(), ParseVerilogError> {
        if self.at_punct(Punct::LBracket) {
            let _ = self.range()?;
        }
        Ok(())
    }

    fn range(&mut self) -> Result<Range, ParseVerilogError> {
        self.expect_punct(Punct::LBracket)?;
        let msb = self.expr()?;
        self.expect_punct(Punct::Colon)?;
        let lsb = self.expr()?;
        self.expect_punct(Punct::RBracket)?;
        Ok(Range { msb, lsb })
    }

    fn port_list(&mut self, module: &mut Module) -> Result<(), ParseVerilogError> {
        // Either ANSI (`input wire [3:0] a, output reg b`) or non-ANSI
        // (`a, b, c`). Direction/type "stick" across commas in ANSI style.
        let mut cur_dir: Option<PortDir> = None;
        let mut cur_reg = false;
        let mut cur_range: Option<Range> = None;
        loop {
            let dir = match self.peek() {
                Some(Token::Kw(Keyword::Input)) => Some(PortDir::Input),
                Some(Token::Kw(Keyword::Output)) => Some(PortDir::Output),
                Some(Token::Kw(Keyword::Inout)) => Some(PortDir::Inout),
                _ => None,
            };
            if let Some(d) = dir {
                self.bump();
                cur_dir = Some(d);
                cur_reg = false;
                cur_range = None;
                if self.eat_kw(Keyword::Wire) {
                    // plain wire
                } else if self.eat_kw(Keyword::Reg) {
                    cur_reg = true;
                }
                if self.at_punct(Punct::LBracket) {
                    cur_range = Some(self.range()?);
                }
            }
            let name = self.expect_ident()?;
            module.port_order.push(name.to_string());
            if let Some(d) = cur_dir {
                module.ports.push(Port {
                    name: name.to_string(),
                    dir: d,
                    is_reg: cur_reg,
                    range: cur_range.clone(),
                });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------- items

    fn item(&mut self, module: &mut Module) -> Result<(), ParseVerilogError> {
        match self.peek() {
            Some(Token::Kw(Keyword::Input)) => self.non_ansi_port(module, PortDir::Input),
            Some(Token::Kw(Keyword::Output)) => self.non_ansi_port(module, PortDir::Output),
            Some(Token::Kw(Keyword::Inout)) => self.non_ansi_port(module, PortDir::Inout),
            Some(Token::Kw(Keyword::Wire)) => self.net_decl(module, NetKind::Wire),
            Some(Token::Kw(Keyword::Reg)) => self.net_decl(module, NetKind::Reg),
            Some(Token::Kw(Keyword::Integer)) => self.net_decl(module, NetKind::Integer),
            Some(Token::Kw(Keyword::Parameter)) | Some(Token::Kw(Keyword::Localparam)) => {
                self.bump();
                self.skip_optional_range()?;
                loop {
                    let name = self.expect_ident()?.to_string();
                    self.expect_punct(Punct::Assign)?;
                    let value = self.expr()?;
                    module.items.push(Item::Param { name, value });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(())
            }
            Some(Token::Kw(Keyword::Assign)) => {
                self.bump();
                loop {
                    let lhs = self.nested(Self::lvalue)?.0;
                    self.expect_punct(Punct::Assign)?;
                    let rhs = self.expr()?;
                    module.items.push(Item::Assign { lhs, rhs });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(())
            }
            Some(Token::Kw(Keyword::Always)) => {
                self.bump();
                let sensitivity = if self.eat_punct(Punct::At) {
                    self.sensitivity_list()?
                } else {
                    Vec::new()
                };
                let body = self.stmt()?;
                module.items.push(Item::Always { sensitivity, body });
                Ok(())
            }
            Some(Token::Kw(Keyword::Initial)) => {
                self.bump();
                let body = self.stmt()?;
                module.items.push(Item::Initial(body));
                Ok(())
            }
            Some(&Token::Kw(k)) if k.is_gate() && k != Keyword::Or => {
                let kind = match k {
                    Keyword::GateAnd => GateKind::And,
                    Keyword::GateNand => GateKind::Nand,
                    Keyword::GateNor => GateKind::Nor,
                    Keyword::GateXor => GateKind::Xor,
                    Keyword::GateXnor => GateKind::Xnor,
                    Keyword::GateNot => GateKind::Not,
                    Keyword::GateBuf => GateKind::Buf,
                    // g4check: allow(panic-path): the match arm admits only gate keywords
                    _ => unreachable!("matched gate keyword"),
                };
                self.bump();
                self.gate_instances(module, kind)
            }
            Some(Token::Kw(Keyword::Or)) => {
                // `or` as a gate primitive at item level
                self.bump();
                self.gate_instances(module, GateKind::Or)
            }
            Some(Token::Ident(_)) => self.module_instance(module),
            Some(Token::Punct(Punct::Semi)) => {
                self.bump();
                Ok(())
            }
            _ => Err(self.unexpected("module item")),
        }
    }

    fn non_ansi_port(
        &mut self,
        module: &mut Module,
        dir: PortDir,
    ) -> Result<(), ParseVerilogError> {
        self.bump(); // direction keyword
        let mut is_reg = false;
        if self.eat_kw(Keyword::Wire) {
            // nothing
        } else if self.eat_kw(Keyword::Reg) {
            is_reg = true;
        }
        let range = if self.at_punct(Punct::LBracket) {
            Some(self.range()?)
        } else {
            None
        };
        loop {
            let name = self.expect_ident()?;
            // update or insert the port entry
            if let Some(p) = module.ports.iter_mut().find(|p| p.name == name) {
                p.dir = dir;
                p.is_reg |= is_reg;
                p.range = range.clone();
            } else {
                module.ports.push(Port {
                    name: name.to_string(),
                    dir,
                    is_reg,
                    range: range.clone(),
                });
            }
            if !module.port_order.iter().any(|p| p == name) {
                module.port_order.push(name.to_string());
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn net_decl(&mut self, module: &mut Module, kind: NetKind) -> Result<(), ParseVerilogError> {
        self.bump(); // wire/reg/integer
        let range = if self.at_punct(Punct::LBracket) {
            Some(self.range()?)
        } else {
            None
        };
        loop {
            let name = self.expect_ident()?;
            // optional memory dimension `[0:255]` — parsed and dropped
            if self.at_punct(Punct::LBracket) {
                let _ = self.range()?;
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            // `output reg` already declared as port: mark reg-ness
            if let Some(p) = module.ports.iter_mut().find(|p| p.name == name) {
                p.is_reg |= kind == NetKind::Reg;
                if p.range.is_none() {
                    p.range = range.clone();
                }
                if let Some(init) = init {
                    module.items.push(Item::Assign {
                        lhs: Expr::ident(&p.name),
                        rhs: init,
                    });
                }
            } else {
                module.items.push(Item::Decl {
                    kind,
                    name: name.to_string(),
                    range: range.clone(),
                    init,
                });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn gate_instances(
        &mut self,
        module: &mut Module,
        kind: GateKind,
    ) -> Result<(), ParseVerilogError> {
        loop {
            let name = match self.peek() {
                Some(&Token::Ident(name)) => {
                    self.bump();
                    Some(name.to_string())
                }
                _ => None,
            };
            self.expect_punct(Punct::LParen)?;
            let mut conns = Vec::new();
            if !self.at_punct(Punct::RParen) {
                loop {
                    conns.push(self.expr()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            module
                .items
                .push(Item::Gate(GateInstance { kind, name, conns }));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn module_instance(&mut self, module: &mut Module) -> Result<(), ParseVerilogError> {
        let mod_name = self.expect_ident()?;
        let mut param_overrides = Vec::new();
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            if !self.at_punct(Punct::RParen) {
                loop {
                    if self.eat_punct(Punct::Dot) {
                        let p = self.expect_ident()?.to_string();
                        self.expect_punct(Punct::LParen)?;
                        let e = self.expr()?;
                        self.expect_punct(Punct::RParen)?;
                        param_overrides.push((Some(p), e));
                    } else {
                        param_overrides.push((None, self.expr()?));
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        loop {
            let inst_name = self.expect_ident()?.to_string();
            self.expect_punct(Punct::LParen)?;
            let mut conns = Vec::new();
            if !self.at_punct(Punct::RParen) {
                loop {
                    if self.eat_punct(Punct::Dot) {
                        let p = self.expect_ident()?.to_string();
                        self.expect_punct(Punct::LParen)?;
                        let e = if self.at_punct(Punct::RParen) {
                            None
                        } else {
                            Some(self.expr()?)
                        };
                        self.expect_punct(Punct::RParen)?;
                        conns.push((Some(p), e));
                    } else {
                        conns.push((None, Some(self.expr()?)));
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            module.items.push(Item::Instance(ModuleInstance {
                module: mod_name.to_string(),
                name: inst_name,
                param_overrides: param_overrides.clone(),
                conns,
            }));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn sensitivity_list(&mut self) -> Result<Vec<SensItem>, ParseVerilogError> {
        // @* or @(*) or @(list)
        if self.eat_punct(Punct::Star) {
            return Ok(vec![SensItem::Star]);
        }
        self.expect_punct(Punct::LParen)?;
        if self.eat_punct(Punct::Star) {
            self.expect_punct(Punct::RParen)?;
            return Ok(vec![SensItem::Star]);
        }
        let mut items = Vec::new();
        loop {
            let item = if self.eat_kw(Keyword::Posedge) {
                SensItem::Posedge(self.expect_ident()?.to_string())
            } else if self.eat_kw(Keyword::Negedge) {
                SensItem::Negedge(self.expect_ident()?.to_string())
            } else {
                SensItem::Level(self.expect_ident()?.to_string())
            };
            items.push(item);
            if self.eat_punct(Punct::Comma) || self.eat_kw(Keyword::Or) {
                continue;
            }
            break;
        }
        self.expect_punct(Punct::RParen)?;
        Ok(items)
    }

    // ---------------------------------------------------------- statements

    fn stmt(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.nested(Self::statement)
    }

    /// One statement; each kind is parsed by its own helper, so the frame
    /// a nested statement recurses through stays small.
    fn statement(&mut self) -> Result<Stmt, ParseVerilogError> {
        match self.peek() {
            Some(Token::Kw(Keyword::Begin)) => self.block(),
            Some(Token::Kw(Keyword::If)) => self.if_stmt(),
            Some(Token::Kw(Keyword::Case | Keyword::Casex | Keyword::Casez)) => self.case_stmt(),
            Some(Token::Kw(Keyword::For)) => self.for_stmt(),
            Some(Token::Punct(Punct::Semi)) => {
                self.bump();
                Ok(Stmt::Null)
            }
            Some(Token::Punct(Punct::Hash)) => self.delayed(),
            Some(Token::Ident(name)) if name.starts_with('$') => self.system_task(),
            _ => self.assignment(),
        }
    }

    fn block(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.bump(); // begin
                     // optional block label `: name`
        if self.eat_punct(Punct::Colon) {
            self.expect_ident()?;
        }
        let mut stmts = Vec::new();
        while !self.at_kw(Keyword::End) {
            if self.peek().is_none() {
                return Err(self.unexpected("'end'"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect_kw(Keyword::End)?;
        Ok(Stmt::Block(stmts))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.bump(); // if
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_s = Box::new(self.stmt()?);
        let else_s = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_s,
            else_s,
        })
    }

    fn case_stmt(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.bump(); // case / casex / casez
        self.expect_punct(Punct::LParen)?;
        let subject = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let mut arms = Vec::new();
        while !self.at_kw(Keyword::Endcase) {
            if self.peek().is_none() {
                return Err(self.unexpected("'endcase'"));
            }
            arms.push(self.case_arm()?);
        }
        self.expect_kw(Keyword::Endcase)?;
        Ok(Stmt::Case { subject, arms })
    }

    /// `labels: stmt`, or `default: stmt` with empty labels.
    fn case_arm(&mut self) -> Result<(Vec<Expr>, Stmt), ParseVerilogError> {
        let labels = if self.eat_kw(Keyword::Default) {
            self.eat_punct(Punct::Colon);
            Vec::new()
        } else {
            let mut labels = vec![self.expr()?];
            while self.eat_punct(Punct::Comma) {
                labels.push(self.expr()?);
            }
            self.expect_punct(Punct::Colon)?;
            labels
        };
        Ok((labels, self.stmt()?))
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.bump(); // for
        self.expect_punct(Punct::LParen)?;
        let var = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let init = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let var2 = self.expect_ident()?;
        if var2 != var {
            return Err(ParseVerilogError::at(
                self.span(),
                format!("for-loop step must assign '{var}'"),
            ));
        }
        self.expect_punct(Punct::Assign)?;
        let step = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::For {
            var: var.to_string(),
            init,
            cond,
            step,
            body,
        })
    }

    /// `#10 stmt`: the delay control is skipped.
    fn delayed(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.bump(); // #
        match self.peek() {
            Some(Token::Number { .. }) => self.bump(),
            Some(Token::Punct(Punct::LParen)) => {
                self.bump();
                self.expr()?;
                self.expect_punct(Punct::RParen)?;
            }
            _ => {}
        }
        self.stmt()
    }

    /// A system task call, consumed and ignored.
    fn system_task(&mut self) -> Result<Stmt, ParseVerilogError> {
        self.bump(); // $name
        if self.eat_punct(Punct::LParen) {
            let mut depth = 1u32;
            while depth > 0 {
                match self.peek() {
                    Some(Token::Punct(Punct::LParen)) => depth += 1,
                    Some(Token::Punct(Punct::RParen)) => depth -= 1,
                    Some(_) => {}
                    None => return Err(self.unexpected("')'")),
                }
                self.bump();
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Null)
    }

    /// `lhs = rhs;` or `lhs <= rhs;`.
    fn assignment(&mut self) -> Result<Stmt, ParseVerilogError> {
        let lhs = self.nested(Self::lvalue)?.0;
        if self.eat_punct(Punct::LtEq) {
            let rhs = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt::NonBlocking { lhs, rhs })
        } else if self.eat_punct(Punct::Assign) {
            let rhs = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt::Blocking { lhs, rhs })
        } else {
            Err(self.unexpected("'=' or '<='"))
        }
    }

    /// Parses an assignment target: identifier with optional selects, or a
    /// concatenation of targets.
    fn lvalue(&mut self) -> Result<Tall, ParseVerilogError> {
        if self.eat_punct(Punct::LBrace) {
            let (first, mut below) = self.nested(Self::lvalue)?;
            let mut parts = vec![first];
            while self.eat_punct(Punct::Comma) {
                let (part, height) = self.nested(Self::lvalue)?;
                parts.push(part);
                below = below.max(height);
            }
            self.expect_punct(Punct::RBrace)?;
            return self.node(Expr::Concat(parts), below);
        }
        let name = self.expect_ident()?;
        self.selects((Expr::Ident(name.to_string()), 0))
    }

    // ---------------------------------------------------------- expressions

    /// An expression where its height is not needed: a statement's or
    /// item's operand, a range bound, a connection.
    fn expr(&mut self) -> Result<Expr, ParseVerilogError> {
        Ok(self.subexpr()?.0)
    }

    /// An expression one nesting level below the caller's.
    fn subexpr(&mut self) -> Result<Tall, ParseVerilogError> {
        self.nested(Self::ternary)
    }

    // The functions a nested expression recurses through (`subexpr`,
    // `ternary`, `binary`, `unary`, `primary`, `operand`, `concat`,
    // `selects`) keep few locals and leave node building to helpers, so
    // each nesting level costs little stack even in debug builds.

    fn ternary(&mut self) -> Result<Tall, ParseVerilogError> {
        let cond = self.binary()?;
        if self.eat_punct(Punct::Question) {
            self.ternary_branches(cond)
        } else {
            Ok(cond)
        }
    }

    fn ternary_branches(&mut self, (cond, cond_h): Tall) -> Result<Tall, ParseVerilogError> {
        let (then_e, then_h) = self.subexpr()?;
        self.expect_punct(Punct::Colon)?;
        let (else_e, else_h) = self.subexpr()?;
        self.node(
            Expr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            },
            cond_h.max(then_h).max(else_h),
        )
    }

    /// A chain of binary operators, by operator precedence: every operator
    /// is left-associative, so `a - b - c` is `(a - b) - c`. An operator
    /// waits on `pending` until one that binds no tighter follows, so a
    /// climb through the precedence levels (`a || b && c | …`) does not
    /// recurse.
    fn binary(&mut self) -> Result<Tall, ParseVerilogError> {
        let first = self.unary()?;
        if self.binary_op().is_none() {
            return Ok(first);
        }
        self.binary_rest(first)
    }

    fn binary_rest(&mut self, mut last: Tall) -> Result<Tall, ParseVerilogError> {
        let base = self.pending.len();
        while let Some((prec, op)) = self.binary_op() {
            last = self.reduce(base, prec, last)?;
            self.bump();
            self.pending.push((prec, op, last));
            last = self.unary()?;
        }
        self.reduce(base, 0, last)
    }

    /// Applies the operators pending above `base` that bind at least as
    /// tightly as `prec`, innermost first, with `rhs` as the right operand
    /// of the innermost.
    fn reduce(&mut self, base: usize, prec: u8, mut rhs: Tall) -> Result<Tall, ParseVerilogError> {
        while self.pending.len() > base && self.pending.last().is_some_and(|p| p.0 >= prec) {
            let Some((_, op, (lhs, lhs_h))) = self.pending.pop() else {
                break;
            };
            let (rhs_e, rhs_h) = rhs;
            rhs = self.node(
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs_e),
                },
                lhs_h.max(rhs_h),
            )?;
        }
        Ok(rhs)
    }

    /// The binary operator at the cursor with its precedence, loosest 0.
    fn binary_op(&self) -> Option<(u8, BinaryOp)> {
        let Some(Token::Punct(p)) = self.peek() else {
            return None;
        };
        Some(match p {
            Punct::OrOr => (0, BinaryOp::LogicalOr),
            Punct::AndAnd => (1, BinaryOp::LogicalAnd),
            Punct::Or => (2, BinaryOp::Or),
            Punct::Xor => (3, BinaryOp::Xor),
            Punct::Xnor => (3, BinaryOp::Xnor),
            Punct::And => (4, BinaryOp::And),
            Punct::EqEq => (5, BinaryOp::Eq),
            Punct::NotEq => (5, BinaryOp::Neq),
            Punct::CaseEq => (5, BinaryOp::CaseEq),
            Punct::CaseNotEq => (5, BinaryOp::CaseNeq),
            Punct::Lt => (6, BinaryOp::Lt),
            Punct::Gt => (6, BinaryOp::Gt),
            Punct::LtEq => (6, BinaryOp::Le),
            Punct::GtEq => (6, BinaryOp::Ge),
            Punct::Shl => (7, BinaryOp::Shl),
            Punct::Shr => (7, BinaryOp::Shr),
            Punct::AShr => (7, BinaryOp::AShr),
            Punct::Plus => (8, BinaryOp::Add),
            Punct::Minus => (8, BinaryOp::Sub),
            Punct::Star => (9, BinaryOp::Mul),
            Punct::Slash => (9, BinaryOp::Div),
            Punct::Percent => (9, BinaryOp::Mod),
            Punct::Star2 => (10, BinaryOp::Pow),
            _ => return None,
        })
    }

    fn unary(&mut self) -> Result<Tall, ParseVerilogError> {
        let Some(op) = self.unary_op() else {
            return self.primary();
        };
        self.bump();
        let arg = self.nested(Self::unary)?;
        self.unary_node(op, arg)
    }

    fn unary_op(&self) -> Option<UnaryOp> {
        let Some(Token::Punct(p)) = self.peek() else {
            return None;
        };
        Some(match p {
            Punct::Not => UnaryOp::Not,
            Punct::Tilde => UnaryOp::BitNot,
            Punct::Plus => UnaryOp::Plus,
            Punct::Minus => UnaryOp::Minus,
            Punct::And => UnaryOp::ReduceAnd,
            Punct::Or => UnaryOp::ReduceOr,
            Punct::Xor => UnaryOp::ReduceXor,
            Punct::Nand => UnaryOp::ReduceNand,
            Punct::Nor => UnaryOp::ReduceNor,
            Punct::Xnor => UnaryOp::ReduceXnor,
            _ => return None,
        })
    }

    fn unary_node(&self, op: UnaryOp, (arg, below): Tall) -> Result<Tall, ParseVerilogError> {
        self.node(
            Expr::Unary {
                op,
                arg: Box::new(arg),
            },
            below,
        )
    }

    fn primary(&mut self) -> Result<Tall, ParseVerilogError> {
        if !self.eat_punct(Punct::LParen) {
            return self.operand();
        }
        let e = self.subexpr()?;
        self.expect_punct(Punct::RParen)?;
        Ok(e)
    }

    /// A primary other than a parenthesised expression.
    fn operand(&mut self) -> Result<Tall, ParseVerilogError> {
        match self.peek() {
            Some(&Token::Number { width, value, .. }) => {
                self.bump();
                Ok((Expr::Number { width, value }, 0))
            }
            Some(Token::Str(s)) => {
                let s = s.to_string();
                self.bump();
                Ok((Expr::Str(s), 0))
            }
            Some(&Token::Ident(name)) => {
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    self.call(name)
                } else {
                    self.selects((Expr::Ident(name.to_string()), 0))
                }
            }
            Some(Token::Punct(Punct::LBrace)) => {
                self.bump();
                self.concat()
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    /// A call's arguments up to its `)`, after `name(`.
    fn call(&mut self, name: &str) -> Result<Tall, ParseVerilogError> {
        let (args, below) = if self.at_punct(Punct::RParen) {
            (Vec::new(), 0)
        } else {
            let first = self.subexpr()?;
            self.more_exprs(first)?
        };
        self.expect_punct(Punct::RParen)?;
        self.node(
            Expr::Call {
                name: name.to_string(),
                args,
            },
            below,
        )
    }

    /// A concatenation `{a, b}` or repeat `{n{a, b}}`, after its `{`.
    fn concat(&mut self) -> Result<Tall, ParseVerilogError> {
        let first = self.subexpr()?;
        if self.eat_punct(Punct::LBrace) {
            return self.repeat(first);
        }
        let (parts, below) = self.more_exprs(first)?;
        self.expect_punct(Punct::RBrace)?;
        self.node(Expr::Concat(parts), below)
    }

    /// A repeat's body up to its closing `}}`, after `{count{`.
    fn repeat(&mut self, (count, count_h): Tall) -> Result<Tall, ParseVerilogError> {
        let part = self.subexpr()?;
        let (parts, below) = self.more_exprs(part)?;
        self.expect_punct(Punct::RBrace)?;
        self.expect_punct(Punct::RBrace)?;
        let (body, body_h) = match <[Expr; 1]>::try_from(parts) {
            Ok([part]) => (part, below),
            Err(parts) => self.node(Expr::Concat(parts), below)?,
        };
        self.node(
            Expr::Repeat {
                count: Box::new(count),
                body: Box::new(body),
            },
            count_h.max(body_h),
        )
    }

    /// `first` and the `, expr` items after it, with the tallest height.
    fn more_exprs(
        &mut self,
        (first, mut below): Tall,
    ) -> Result<(Vec<Expr>, usize), ParseVerilogError> {
        let mut list = vec![first];
        while self.eat_punct(Punct::Comma) {
            let (e, height) = self.subexpr()?;
            list.push(e);
            below = below.max(height);
        }
        Ok((list, below))
    }

    /// Applies any `[i]` / `[m:l]` selects that follow `base`.
    fn selects(&mut self, mut base: Tall) -> Result<Tall, ParseVerilogError> {
        while self.eat_punct(Punct::LBracket) {
            let first = self.subexpr()?;
            base = self.select(base, first)?;
        }
        Ok(base)
    }

    /// `base[first]` or `base[first:lsb]`, after `first`.
    fn select(
        &mut self,
        (base, height): Tall,
        (first, first_h): Tall,
    ) -> Result<Tall, ParseVerilogError> {
        if self.eat_punct(Punct::Colon) {
            let (lsb, lsb_h) = self.subexpr()?;
            self.expect_punct(Punct::RBracket)?;
            return self.node(
                Expr::PartSelect {
                    base: Box::new(base),
                    msb: Box::new(first),
                    lsb: Box::new(lsb),
                },
                height.max(first_h).max(lsb_h),
            );
        }
        self.expect_punct(Punct::RBracket)?;
        self.node(
            Expr::BitSelect {
                base: Box::new(base),
                index: Box::new(first),
            },
            height.max(first_h),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Module {
        let unit = parse(src).expect("parses");
        assert_eq!(unit.modules.len(), 1);
        unit.modules.into_iter().next().expect("one module")
    }

    #[test]
    fn parses_ansi_module() {
        let m = parse_one(
            "module adder(input a, input b, input cin, output reg sum, output reg cout);
             endmodule",
        );
        assert_eq!(m.name, "adder");
        assert_eq!(m.inputs(), vec!["a", "b", "cin"]);
        assert_eq!(m.outputs(), vec!["sum", "cout"]);
        assert!(
            m.ports
                .iter()
                .find(|p| p.name == "sum")
                .expect("sum")
                .is_reg
        );
    }

    #[test]
    fn parses_non_ansi_module() {
        let m = parse_one(
            "module adder(a, b, y);
               input a, b;
               output [1:0] y;
             endmodule",
        );
        assert_eq!(m.inputs(), vec!["a", "b"]);
        assert_eq!(m.outputs(), vec!["y"]);
        assert!(m
            .ports
            .iter()
            .find(|p| p.name == "y")
            .expect("y")
            .range
            .is_some());
    }

    #[test]
    fn parses_assign_and_exprs() {
        let m = parse_one(
            "module m(input a, input b, output y);
               assign y = (a ^ b) | ~a & b;
             endmodule",
        );
        match &m.items[0] {
            Item::Assign { rhs, .. } => {
                // precedence: | at top
                match rhs {
                    Expr::Binary {
                        op: BinaryOp::Or, ..
                    } => {}
                    e => panic!("wrong precedence: {e:?}"),
                }
            }
            i => panic!("expected assign, got {i:?}"),
        }
    }

    #[test]
    fn parses_always_with_sensitivity() {
        let m = parse_one(
            "module m(input clk, input rst, input d, output reg q);
               always @(posedge clk or negedge rst)
                 if (!rst) q <= 1'b0; else q <= d;
             endmodule",
        );
        match &m.items[0] {
            Item::Always { sensitivity, body } => {
                assert_eq!(sensitivity.len(), 2);
                assert_eq!(sensitivity[0], SensItem::Posedge("clk".into()));
                assert!(matches!(body, Stmt::If { .. }));
            }
            i => panic!("expected always, got {i:?}"),
        }
    }

    #[test]
    fn parses_star_sensitivity() {
        let m = parse_one(
            "module m(input a, output reg y);
               always @(*) y = a;
             endmodule",
        );
        match &m.items[0] {
            Item::Always { sensitivity, .. } => assert_eq!(sensitivity, &vec![SensItem::Star]),
            i => panic!("{i:?}"),
        }
        let m2 = parse_one(
            "module m(input a, output reg y);
               always @* y = a;
             endmodule",
        );
        assert!(matches!(&m2.items[0], Item::Always { .. }));
    }

    #[test]
    fn parses_case_statement() {
        let m = parse_one(
            "module m(input [1:0] s, output reg y);
               always @* case (s)
                 2'b00: y = 1'b0;
                 2'b01, 2'b10: y = 1'b1;
                 default: y = 1'bx;
               endcase
             endmodule",
        );
        match &m.items[0] {
            Item::Always {
                body: Stmt::Case { arms, .. },
                ..
            } => {
                assert_eq!(arms.len(), 3);
                assert_eq!(arms[1].0.len(), 2);
                assert!(arms[2].0.is_empty());
            }
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn parses_gate_primitives() {
        let m = parse_one(
            "module fa(input a, input b, input cin, output sum, output cout);
               wire t1, t2, t3;
               xor (t1, a, b);
               and g2(t2, a, b);
               and (t3, t1, cin);
               xor (sum, t1, cin);
               or (cout, t3, t2);
             endmodule",
        );
        let gates: Vec<_> = m
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Gate(g) => Some(g.kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            gates,
            vec![
                GateKind::Xor,
                GateKind::And,
                GateKind::And,
                GateKind::Xor,
                GateKind::Or
            ]
        );
    }

    #[test]
    fn parses_multiple_gate_instances_per_statement() {
        let m = parse_one(
            "module m(input a, input b, output x, output y);
               and g1(x, a, b), g2(y, b, a);
             endmodule",
        );
        let n = m
            .items
            .iter()
            .filter(|i| matches!(i, Item::Gate(_)))
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn parses_module_instance_named_and_positional() {
        let unit = parse(
            "module leaf(input a, output y); assign y = a; endmodule
             module top(input x, output z, output w);
               leaf u0(.a(x), .y(z));
               leaf u1(x, w);
             endmodule",
        )
        .expect("parses");
        let top = unit.module("top").expect("top");
        let insts: Vec<_> = top
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Instance(mi) => Some(mi),
                _ => None,
            })
            .collect();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].conns[0].0.as_deref(), Some("a"));
        assert!(insts[1].conns[0].0.is_none());
    }

    #[test]
    fn parses_parameters_and_overrides() {
        let unit = parse(
            "module w #(parameter N = 4)(input [N-1:0] a, output [N-1:0] y);
               assign y = a;
             endmodule
             module top(input [7:0] i, output [7:0] o);
               w #(.N(8)) u(.a(i), .y(o));
             endmodule",
        )
        .expect("parses");
        let w = unit.module("w").expect("w");
        assert_eq!(w.params.len(), 1);
        let top = unit.module("top").expect("top");
        match &top.items[0] {
            Item::Instance(mi) => assert_eq!(mi.param_overrides.len(), 1),
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn parses_concat_repeat_and_selects() {
        let m = parse_one(
            "module m(input [7:0] a, output [15:0] y);
               assign y = {{2{a[3:0]}}, a[7], 3'b010};
             endmodule",
        );
        match &m.items[0] {
            Item::Assign {
                rhs: Expr::Concat(_),
                ..
            } => {}
            Item::Assign {
                rhs: Expr::Repeat { .. },
                ..
            } => {}
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn parses_ternary_chain() {
        let m = parse_one(
            "module m(input [1:0] s, input a, input b, input c, output y);
               assign y = s == 2'd0 ? a : s == 2'd1 ? b : c;
             endmodule",
        );
        match &m.items[0] {
            Item::Assign {
                rhs: Expr::Ternary { .. },
                ..
            } => {}
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn parses_for_loop() {
        let m = parse_one(
            "module m(input [3:0] a, output reg [3:0] y);
               integer i;
               always @* begin
                 for (i = 0; i < 4; i = i + 1)
                   y[i] = a[3 - i];
               end
             endmodule",
        );
        match &m.items[1] {
            Item::Always {
                body: Stmt::Block(stmts),
                ..
            } => {
                assert!(matches!(stmts[0], Stmt::For { .. }));
            }
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn parses_reduction_operators() {
        let m = parse_one(
            "module m(input [3:0] a, output y);
               assign y = &a | ^a & ~|a;
             endmodule",
        );
        assert!(matches!(&m.items[0], Item::Assign { .. }));
    }

    #[test]
    fn skips_system_tasks_and_initial() {
        let m = parse_one(
            "module m(input a);
               initial begin
                 $display(\"hello %d\", a);
                 #10;
               end
             endmodule",
        );
        assert!(matches!(&m.items[0], Item::Initial(_)));
    }

    #[test]
    fn error_reports_location() {
        let err = parse("module m(input a;\nendmodule").unwrap_err();
        assert!(err.span().is_some());
    }

    #[test]
    fn wire_with_init_becomes_assign() {
        let m = parse_one(
            "module m(input a, output y);
               wire t = ~a;
               assign y = t;
             endmodule",
        );
        let has_decl = m
            .items
            .iter()
            .any(|i| matches!(i, Item::Decl { name, .. } if name == "t"));
        assert!(has_decl);
    }

    fn rhs_of(src: &str) -> Expr {
        match parse_one(&format!("module m(output y); assign y = {src}; endmodule"))
            .items
            .remove(0)
        {
            Item::Assign { rhs, .. } => rhs,
            i => panic!("{i:?}"),
        }
    }

    #[test]
    fn binary_operators_bind_by_precedence_and_associate_left() {
        // parentheses add no node, so each pair must parse to one tree
        for (bare, grouped) in [
            ("a - b - c", "(a - b) - c"),
            ("a || b && c | d ^ e & f", "a || (b && (c | (d ^ (e & f))))"),
            (
                "a == b < c << d + e * f ** g",
                "a == (b < (c << (d + (e * (f ** g)))))",
            ),
            (
                "a ** b * c + d << e < f != g",
                "((((((a ** b) * c) + d) << e) < f) != g)",
            ),
            ("a ^ b ~^ c & d", "(a ^ b) ~^ (c & d)"),
            ("-a * ~b", "(-a) * (~b)"),
            ("a ? b : c ? d : e", "a ? b : (c ? d : e)"),
            ("a | b ? c + d : e", "(a | b) ? (c + d) : e"),
        ] {
            assert_eq!(rhs_of(bare), rhs_of(grouped), "{bare}");
        }
        // operators waiting outside parentheses do not reach inside them
        assert_ne!(rhs_of("a * (b + c)"), rhs_of("a * b + c"));
        assert_ne!(rhs_of("a - (b - c)"), rhs_of("a - b - c"));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let too_deep = |body: String| {
            let src = format!("module m(input a, output y); {body} endmodule");
            let err = parse(&src).expect_err("too deep");
            assert!(
                err.to_string()
                    .starts_with(&format!("nesting deeper than {MAX_NESTING} levels at 1:")),
                "{err}"
            );
        };
        let n = 100_000;
        too_deep(format!("assign y = {}a{};", "(".repeat(n), ")".repeat(n)));
        too_deep(format!("assign y = {}a;", "~".repeat(n)));
        too_deep(format!("assign y = a{};", " + a".repeat(n)));
        too_deep(format!("assign y = a{};", "[0]".repeat(n)));
        too_deep(format!("assign y = {}a{};", "{".repeat(n), "}".repeat(n)));
        too_deep(format!("assign {}y{} = a;", "{".repeat(n), "}".repeat(n)));
        too_deep(format!("always @* {}y = a;", "# ".repeat(n)));
        too_deep(format!(
            "always @* {}y = a;{}",
            "begin ".repeat(n),
            " end".repeat(n)
        ));
        // a wide expression is not a deep one
        let wide = format!("assign y = {{{}a}};", "a, ".repeat(n));
        assert!(parse(&format!("module m(input a, output y); {wide} endmodule")).is_ok());
    }

    #[test]
    fn lvalue_concat_assignment() {
        let m = parse_one(
            "module m(input [1:0] a, output x, output y);
               assign {x, y} = a;
             endmodule",
        );
        match &m.items[0] {
            Item::Assign {
                lhs: Expr::Concat(parts),
                ..
            } => assert_eq!(parts.len(), 2),
            i => panic!("{i:?}"),
        }
    }
}
