//! The end-to-end DFG generation pipeline of the paper's Fig. 2:
//! preprocess → parse → data-flow analysis → merge → trim.

use gnn4ip_hdl::ParseVerilogError;

use crate::extract::extract;
use crate::graph::Dfg;
use crate::trim::{trim, TrimStats};

/// Summary of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineReport {
    /// Nodes in the final (trimmed) graph.
    pub nodes: usize,
    /// Edges in the final graph.
    pub edges: usize,
    /// Output roots.
    pub roots: usize,
    /// What trimming removed.
    pub trim: TrimStats,
}

/// Runs the full Fig. 2 pipeline on Verilog source text.
///
/// `top` selects the root module; `None` auto-detects (the module nothing
/// else instantiates). Works for both RTL and gate-level netlists — the
/// paper's two abstraction levels.
///
/// # Errors
///
/// Propagates preprocessing, parse, and elaboration errors from
/// [`gnn4ip_hdl`], and fails when the trimmed graph is empty (a top
/// module with no `output` port roots nothing).
///
/// # Examples
///
/// ```
/// use gnn4ip_dfg::graph_from_verilog;
///
/// let g = graph_from_verilog(
///     "module inv(input a, output y); assign y = ~a; endmodule", None)?;
/// assert_eq!(g.roots().len(), 1);
/// assert_eq!(g.node_count(), 3); // y -> ~ -> a
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn graph_from_verilog(source: &str, top: Option<&str>) -> Result<Dfg, ParseVerilogError> {
    Ok(graph_with_report(source, top)?.0)
}

/// Like [`graph_from_verilog`] but also returns pipeline statistics.
///
/// # Errors
///
/// Same conditions as [`graph_from_verilog`].
pub fn graph_with_report(
    source: &str,
    top: Option<&str>,
) -> Result<(Dfg, PipelineReport), ParseVerilogError> {
    let flat = gnn4ip_hdl::elaborate(source, top)?;
    let mut g = extract(&flat);
    let trim_stats = trim(&mut g);
    if g.node_count() == 0 {
        // no output root: nothing survives trim, and an empty graph has
        // no embedding
        return Err(ParseVerilogError::msg(format!(
            "module `{}` has no output port; its data-flow graph is empty",
            g.name()
        )));
    }
    let report = PipelineReport {
        nodes: g.node_count(),
        edges: g.edge_count(),
        roots: g.roots().len(),
        trim: trim_stats,
    };
    Ok((g, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADDER_RTL: &str = "
        module ADDER(input Num1, input Num2, input Cin,
                     output reg Sum, output reg Cout);
          always @(Num1, Num2, Cin) begin
            Sum <= ((Num1 ^ Num2) ^ Cin);
            Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));
          end
        endmodule";

    const ADDER_GATES: &str = "
        module ADDER(Num1, Num2, Cin, Sum, Cout);
          input Num1, Num2, Cin;
          output Sum, Cout;
          wire t1, t2, t3;
          xor (t1, Num1, Num2);
          and (t2, Num1, Num2);
          and (t3, t1, Cin);
          xor (Sum, t1, Cin);
          or (Cout, t3, t2);
        endmodule";

    #[test]
    fn both_fig1_adders_produce_rooted_dfgs() {
        let (g1, r1) = graph_with_report(ADDER_RTL, None).expect("rtl");
        let (g2, r2) = graph_with_report(ADDER_GATES, None).expect("gates");
        assert_eq!(r1.roots, 2);
        assert_eq!(r2.roots, 2);
        // same behaviour, different topology (the paper's motivating point)
        assert_ne!(g1.node_count(), g2.node_count());
        // every non-root reaches a root
        for g in [&g1, &g2] {
            let mask = g.reachable_from_roots();
            assert!(mask.iter().all(|&m| m), "trim left unreachable nodes");
        }
    }

    #[test]
    fn hierarchical_design_goes_through_pipeline() {
        let src = "
            module ha(input a, input b, output s, output c);
              xor (s, a, b);
              and (c, a, b);
            endmodule
            module fa(input x, input y, input cin, output sum, output cout);
              wire s1, c1, c2;
              ha h1(.a(x), .b(y), .s(s1), .c(c1));
              ha h2(.a(s1), .b(cin), .s(sum), .c(c2));
              or (cout, c1, c2);
            endmodule";
        let g = graph_from_verilog(src, Some("fa")).expect("pipeline");
        assert_eq!(g.roots().len(), 2);
        assert!(g.node_count() >= 10);
    }

    #[test]
    fn parse_error_propagates() {
        assert!(graph_from_verilog("module broken(", None).is_err());
    }

    #[test]
    fn module_without_outputs_is_a_typed_error() {
        for src in [
            "module m(input a); endmodule",
            "module m(inout a); endmodule",
        ] {
            let err = graph_from_verilog(src, None).expect_err("nothing to root");
            assert!(err.to_string().contains("no output port"), "{err}");
        }
    }

    /// One module whose body repeats one nesting step of the given shape
    /// `n` times.
    fn nested_design(shape: &str, n: usize) -> String {
        let body = match shape {
            "parens" => format!("assign y = {}a{};", "(".repeat(n), ")".repeat(n)),
            "unary" => format!("assign y = {}a;", "~".repeat(n)),
            "chain" => format!("assign y = a{};", " & a".repeat(n)),
            "ternary" => format!("assign y = {}a;", "a ? a : ".repeat(n)),
            "paren_chain" => format!("assign y = {}a{};", "(a + ".repeat(n), ")".repeat(n)),
            "concats" => format!("assign y = {}a{};", "{".repeat(n), "}".repeat(n)),
            "indices" => format!("assign y = {}a{};", "a[".repeat(n), "]".repeat(n)),
            // each step climbs all eleven binary precedence levels
            "climb" => format!(
                "assign y = {}a{};",
                "(a || a && a | a ^ a & a == a < a << a + a * a ** ".repeat(n),
                ")".repeat(n)
            ),
            "begins" => format!("always @* {}y = a;{}", "begin ".repeat(n), " end".repeat(n)),
            "ifs" => format!("always @* {}y = a;", "if (a) ".repeat(n)),
            "else_ifs" => format!("always @* {}y = a;", "if (a) y = a; else ".repeat(n)),
            "cases" => format!(
                "always @* {}y = a;{}",
                "case (a) 1: ".repeat(n),
                " endcase".repeat(n)
            ),
            _ => unreachable!("unknown shape {shape}"),
        };
        format!("module m(input a, output reg y); {body} endmodule")
    }

    /// The deepest tree the parser accepts, in each shape, goes through
    /// parse, flatten, extract, trim and drop on a 2 MiB stack (the
    /// default for spawned threads, and so for serve workers). One step
    /// more is a typed error, and so is a body far past the limit, which
    /// the parser refuses before it recurses deeper than the limit.
    #[test]
    fn deepest_accepted_nesting_fits_a_two_mib_stack() {
        let max = gnn4ip_hdl::MAX_NESTING;
        let shapes = [
            ("parens", max - 1),
            ("unary", max - 1),
            // 256 terms: the right-hand side opens one level, each
            // operator adds one
            ("chain", max - 1),
            ("ternary", max - 1),
            ("paren_chain", max - 2),
            ("concats", max - 1),
            ("indices", max - 1),
            ("climb", (max - 2) / 11),
            ("begins", max - 2),
            ("ifs", max - 2),
            // 255 branches, the last a plain `else`: the always body and
            // each `else` open a statement, the last assignment's target
            // one level more
            ("else_ifs", max - 2),
            ("cases", max - 2),
        ];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (shape, deepest) in shapes {
                    let g = graph_from_verilog(&nested_design(shape, deepest), None)
                        .unwrap_or_else(|e| panic!("{shape} x{deepest}: {e}"));
                    assert_eq!(g.roots().len(), 1, "{shape}");
                    for n in [deepest + 1, max + 1] {
                        let err =
                            graph_from_verilog(&nested_design(shape, n), None).expect_err(shape);
                        assert!(
                            err.to_string()
                                .contains(&format!("nesting deeper than {max} levels")),
                            "{shape} x{n}: {err}"
                        );
                    }
                }
            })
            .expect("spawns")
            .join()
            .expect("deep designs stay inside the stack");
    }

    #[test]
    fn report_counts_match_graph() {
        let (g, r) = graph_with_report(ADDER_GATES, None).expect("ok");
        assert_eq!(r.nodes, g.node_count());
        assert_eq!(r.edges, g.edge_count());
    }
}
