//! Source-code generation for compiled plans.
//!
//! GraphPi's production pipeline emits C++ for the selected configuration
//! and compiles it with gcc (Section III, "Code Generation and
//! Compilation"). This reproduction executes plans with an interpreter, but
//! the generator below emits the equivalent nested-loop program — in both a
//! C++ flavour (matching the paper's Figure 5(b)/Figure 6(b) pseudocode) and
//! a Rust flavour — so the structure the engine executes can be inspected,
//! tested, and diffed against the paper.
//!
//! The text is the paper's enumeration form, innermost loop included. The
//! interpreter runs every loop of it but that one: the last loop builds
//! nothing, so [`crate::exec::interp`] hands its candidate window to the
//! sink as a set (a count adds the window's size less the bound vertices in
//! it) — the same embeddings, found without the loop.

use crate::config::{ExecutionPlan, LoopBound};
use crate::exec::setprog::Operand;

/// Target language for the emitted source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// C++-style pseudocode, as in the paper's figures.
    Cpp,
    /// Rust-style pseudocode.
    Rust,
}

/// Vertex names used in the emitted code: pattern vertex `i` is rendered as
/// an uppercase letter (`A`, `B`, …), matching the paper's figures.
fn vertex_name(i: usize) -> String {
    if i < 26 {
        ((b'A' + i as u8) as char).to_string()
    } else {
        format!("V{i}")
    }
}

/// Emits the nested-loop matching program for a plan: the enumeration view
/// of its `SetProgram`, i.e. the loops and hoisted temporaries the
/// interpreter runs, with the last loop written out where the interpreter
/// takes its window as a set (IEP additionally runs the ops only its leaf
/// reads, and stops above the suffix loops).
pub fn generate(plan: &ExecutionPlan, language: Language) -> String {
    let n = plan.num_loops();
    let program = plan.program();
    let cpp = language == Language::Cpp;
    let var = |pos: usize| format!("v_{}", vertex_name(plan.loops[pos].pattern_vertex));
    let set = |operand: Operand| match (operand, cpp) {
        (Operand::All, true) => "V_G".to_string(),
        (Operand::All, false) => "graph.vertices()".to_string(),
        (Operand::Adj(p), true) => format!("N({})", var(p as usize)),
        (Operand::Adj(p), false) => format!("graph.neighbors({})", var(p as usize)),
        (Operand::Slot(s), _) => format!("t{s}"),
    };

    let schedule: Vec<String> = plan
        .loops
        .iter()
        .map(|l| vertex_name(l.pattern_vertex))
        .collect();
    let mut out = format!(
        "// GraphPi generated matcher\n// schedule: {}\n// restrictions: {}\n{}\n",
        schedule.join(" -> "),
        describe_restrictions(plan),
        if cpp {
            "uint64_t count = 0;"
        } else {
            "let mut count: u64 = 0;"
        }
    );
    for depth in 0..n {
        let indent = "    ".repeat(depth);
        let inner = "    ".repeat(depth + 1);
        let v = var(depth);
        let candidates = set(program.candidates(depth));
        out.push_str(&if cpp {
            format!("{indent}for (auto {v} : {candidates}) {{\n")
        } else {
            format!("{indent}for {v} in {candidates} {{\n")
        });
        for bound in &plan.loops[depth].bounds {
            // Break past the upper bound (candidates ascend), skip below
            // the lower one.
            let (greater, smaller, exit) = match *bound {
                LoopBound::LessThanValueAt(p) => (var(p), v.clone(), "break"),
                LoopBound::GreaterThanValueAt(p) => (v.clone(), var(p), "continue"),
            };
            let action = if cpp {
                format!("if ({greater} <= {smaller}) {exit};")
            } else {
                format!("if {greater} <= {smaller} {{ {exit}; }}")
            };
            out.push_str(&format!(
                "{inner}{action} // restriction id({greater}) > id({smaller})\n"
            ));
        }
        // The sets whose last parent just bound, built once, here.
        for op in program.ops_at(depth) {
            if (op.first_loop as usize) < n {
                out.push_str(&format!(
                    "{inner}{} t{} = {} ∩ {};\n",
                    if cpp { "auto" } else { "let" },
                    op.dst,
                    set(op.lhs),
                    set(Operand::Adj(op.depth)),
                ));
            }
        }
        if depth == n - 1 {
            let embedding: Vec<String> = (0..n).map(var).collect();
            out.push_str(&format!(
                "{inner}count += 1; // ({}) is an embedding\n",
                embedding.join(", ")
            ));
        }
    }
    for depth in (0..n).rev() {
        out.push_str(&format!("{}}}\n", "    ".repeat(depth)));
    }
    out
}

fn describe_restrictions(plan: &ExecutionPlan) -> String {
    let restrictions = plan.config.restrictions.restrictions();
    if restrictions.is_empty() {
        return "(none)".to_string();
    }
    restrictions
        .iter()
        .map(|r| {
            format!(
                "id({}) > id({})",
                vertex_name(r.greater),
                vertex_name(r.smaller)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::Schedule;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::RestrictionSet;

    fn house_plan() -> ExecutionPlan {
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        let restrictions = RestrictionSet::from_pairs(&[(0, 1)]);
        Configuration::new(pattern, schedule, restrictions).compile()
    }

    #[test]
    fn cpp_output_mirrors_figure_5() {
        let code = generate(&house_plan(), Language::Cpp);
        // Outer loop over the whole vertex set.
        assert!(code.contains("for (auto v_A : V_G)"));
        // The restriction break in the B loop.
        assert!(code.contains("if (v_A <= v_B) break;"));
        // The intersections for D (N(B) ∩ N(C)) and E (N(A) ∩ N(B)) are
        // hoisted temporaries, each built in the loop of its last parent.
        assert!(code.contains("        auto t0 = N(v_A) ∩ N(v_B);\n        for (auto v_C"));
        assert!(code
            .contains("            auto t1 = N(v_B) ∩ N(v_C);\n            for (auto v_D : t1)"));
        assert!(code.contains("for (auto v_E : t0)"));
        // The set only the IEP leaf reads is not part of the loop nest.
        assert!(!code.contains("t2"));
        // Properly nested braces: 5 opens, 5 closes.
        assert_eq!(code.matches("{\n").count() + code.matches("{{").count(), 5);
        assert_eq!(code.matches("}\n").count(), 5);
        // The embedding action mentions all five vertices.
        assert!(code.contains("(v_A, v_B, v_C, v_D, v_E) is an embedding"));
    }

    #[test]
    fn rust_output_is_generated_too() {
        let code = generate(&house_plan(), Language::Rust);
        assert!(code.contains("for v_A in graph.vertices()"));
        assert!(code.contains("graph.neighbors(v_B)"));
        assert!(code.contains("break;"));
    }

    #[test]
    fn restriction_free_plan_reports_none() {
        let pattern = prefab::triangle();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2]);
        let plan = Configuration::new(pattern, schedule, RestrictionSet::empty()).compile();
        let code = generate(&plan, Language::Cpp);
        assert!(code.contains("restrictions: (none)"));
        assert!(!code.contains("break;"));
    }

    #[test]
    fn lower_bound_restriction_emits_continue() {
        let pattern = prefab::triangle();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2]);
        let plan =
            Configuration::new(pattern, schedule, RestrictionSet::from_pairs(&[(1, 0)])).compile();
        let code = generate(&plan, Language::Cpp);
        assert!(code.contains("continue;"), "{code}");
    }
}
