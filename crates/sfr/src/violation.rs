//! Violation diagnostics.
//!
//! When a rule of the policy of use is violated, "the user is presented
//! with information regarding the nature of the error, and a list of
//! suggested solutions for fixing the problem, including automated
//! program transformations when possible" (paper §2). A [`Violation`]
//! carries exactly that: what rule, where, why, and which transform (if
//! any) can discharge it.

use jtlang::token::Span;
use jtobs::json::Json;
use std::fmt;

/// How a violation can be fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fix {
    /// An automated transformation (by registry name) can discharge it.
    Automated {
        /// Name of the transform in [`crate::transform::stock_transforms`].
        transform: &'static str,
        /// What the transform will do, in user terms.
        description: String,
    },
    /// The tools cannot fix this; the designer must restructure.
    Manual {
        /// Guidance for the designer.
        guidance: String,
    },
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fix::Automated {
                transform,
                description,
            } => write!(f, "automated [{transform}]: {description}"),
            Fix::Manual { guidance } => write!(f, "manual: {guidance}"),
        }
    }
}

/// One policy-of-use violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`R1` … `R9`).
    pub rule: &'static str,
    /// Rule title.
    pub rule_title: &'static str,
    /// What exactly is wrong, with names.
    pub message: String,
    /// Source position of the offending construct.
    pub span: Span,
    /// Class in which the violation occurs.
    pub class: String,
    /// Suggested fix.
    pub fix: Fix,
}

impl Violation {
    /// True when an automated transform is available.
    pub fn is_automatable(&self) -> bool {
        matches!(self.fix, Fix::Automated { .. })
    }

    /// The suggested transform name, if automated.
    pub fn suggested_transform(&self) -> Option<&'static str> {
        match &self.fix {
            Fix::Automated { transform, .. } => Some(transform),
            Fix::Manual { .. } => None,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {} in `{}`: {} ({})",
            self.rule, self.rule_title, self.span, self.class, self.message, self.fix
        )
    }
}

/// Renders a violation as a rustc-style diagnostic: an `error[R#]`
/// header, a `-->` file/line/column pointer, the offending source line
/// with a caret underline, and the message and fix as notes. Violations
/// without a real span (whole-program findings like R3 cycles) get the
/// header and notes only.
pub fn render(v: &Violation, file: &str, source: &str) -> String {
    use fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "error[{}]: {}", v.rule, v.rule_title);
    if v.span.line > 0 {
        let line_no = v.span.line.to_string();
        let gutter = " ".repeat(line_no.len());
        let _ = writeln!(out, "{gutter}--> {file}:{}:{}", v.span.line, v.span.col);
        if let Some(text) = source.lines().nth(v.span.line as usize - 1) {
            let col = (v.span.col.max(1) as usize - 1).min(text.len());
            let width = v
                .span
                .end
                .saturating_sub(v.span.start)
                .clamp(1, text.len().saturating_sub(col).max(1));
            let _ = writeln!(out, "{gutter} |");
            let _ = writeln!(out, "{line_no} | {text}");
            let _ = writeln!(out, "{gutter} | {}{}", " ".repeat(col), "^".repeat(width));
        }
    }
    let _ = writeln!(out, " = note: {}", v.message);
    let _ = writeln!(out, " = help: {}", v.fix);
    out
}

/// Renders a violation as one compact JSON object (the `jtlint --json`
/// line format). Field order is fixed so the output is diffable:
/// `rule`, `rule_title`, `class`, `message`, `span` (start/end byte
/// offsets plus 1-based line/col), `fix` (`kind` plus `transform` +
/// `description` for automated fixes or `guidance` for manual ones),
/// and — when the caller has one — an `evidence` string carrying the
/// analysis fact behind the finding (e.g. the proved loop bound that
/// discharges or substantiates an R2 report).
pub fn render_json(v: &Violation, evidence: Option<&str>) -> String {
    let text = |s: &str| Json::Str(s.to_string());
    let fix = match &v.fix {
        Fix::Automated {
            transform,
            description,
        } => vec![
            ("kind", text("automated")),
            ("transform", text(transform)),
            ("description", text(description)),
        ],
        Fix::Manual { guidance } => vec![("kind", text("manual")), ("guidance", text(guidance))],
    };
    let mut fields = vec![
        ("rule", text(v.rule)),
        ("rule_title", text(v.rule_title)),
        ("class", text(&v.class)),
        ("message", text(&v.message)),
        (
            "span",
            obj(vec![
                ("start", Json::Num(v.span.start as i64)),
                ("end", Json::Num(v.span.end as i64)),
                ("line", Json::Num(i64::from(v.span.line))),
                ("col", Json::Num(i64::from(v.span.col))),
            ]),
        ),
        ("fix", obj(fix)),
    ];
    if let Some(e) = evidence {
        fields.push(("evidence", text(e)));
    }
    obj(fields).render()
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// [`render_json`] with a *structured* evidence payload: `evidence_json`
/// must already be a rendered JSON value (the `jtanalysis::evidence`
/// chain for this finding) and is spliced in verbatim as the `evidence`
/// field, so `jtlint --json` consumers — and the independent
/// `evidence_verify` checker — receive a machine-checkable object
/// instead of a prose string. With `None` the output is byte-identical
/// to `render_json(v, None)`.
pub fn render_json_object(v: &Violation, evidence_json: Option<&str>) -> String {
    let mut out = render_json(v, None);
    if let Some(e) = evidence_json {
        out.pop();
        out.push_str(",\"evidence\":");
        out.push_str(e);
        out.push('}');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_everything() {
        let v = Violation {
            rule: "R1",
            rule_title: "no while loops",
            message: "found a `while` loop".to_string(),
            span: Span::new(0, 5, 3, 9),
            class: "Avg".to_string(),
            fix: Fix::Automated {
                transform: "while-to-for",
                description: "convert to a capped for loop".to_string(),
            },
        };
        let s = v.to_string();
        assert!(s.contains("R1"));
        assert!(s.contains("3:9"));
        assert!(s.contains("Avg"));
        assert!(s.contains("while-to-for"));
        assert!(v.is_automatable());
        assert_eq!(v.suggested_transform(), Some("while-to-for"));
    }

    #[test]
    fn render_points_at_the_offending_line() {
        let source = "class A {\n    void m() {\n        while (true) {}\n    }\n}\n";
        let v = Violation {
            rule: "R1",
            rule_title: "no while or do-while loops",
            message: "`while` loop in A.m cannot be proven to terminate".to_string(),
            span: Span::new(28, 33, 3, 9),
            class: "A".to_string(),
            fix: Fix::Automated {
                transform: "while-to-for",
                description: "rewrite as a capped `for` loop".to_string(),
            },
        };
        let text = render(&v, "a.jt", source);
        assert!(text.starts_with("error[R1]: no while"), "{text}");
        assert!(text.contains("--> a.jt:3:9"), "{text}");
        assert!(text.contains("3 |         while (true) {}"), "{text}");
        assert!(text.contains("^^^^^"), "{text}");
        assert!(text.contains("= note: `while` loop"), "{text}");
        assert!(text.contains("= help: automated [while-to-for]"), "{text}");
    }

    #[test]
    fn render_without_span_skips_the_snippet() {
        let v = Violation {
            rule: "R3",
            rule_title: "no circular method invocation",
            message: "call cycle: A.f -> A.f".to_string(),
            span: Span::default(),
            class: "A".to_string(),
            fix: Fix::Manual {
                guidance: "replace the recursion".to_string(),
            },
        };
        let text = render(&v, "a.jt", "class A {}");
        assert!(text.starts_with("error[R3]"), "{text}");
        assert!(!text.contains("-->"), "{text}");
        assert!(text.contains("= note: call cycle"), "{text}");
    }

    #[test]
    fn json_rendering_is_exact() {
        let v = Violation {
            rule: "R2",
            rule_title: "bounded loops only",
            message: "loop bound for `for` in A.m is \"proved\"".to_string(),
            span: Span::new(28, 33, 3, 9),
            class: "A".to_string(),
            fix: Fix::Automated {
                transform: "while-to-for",
                description: "rewrite as a capped `for` loop".to_string(),
            },
        };
        assert_eq!(
            render_json(&v, Some("proved loop bound: 16")),
            "{\"rule\":\"R2\",\"rule_title\":\"bounded loops only\",\"class\":\"A\",\
             \"message\":\"loop bound for `for` in A.m is \\\"proved\\\"\",\
             \"span\":{\"start\":28,\"end\":33,\"line\":3,\"col\":9},\
             \"fix\":{\"kind\":\"automated\",\"transform\":\"while-to-for\",\
             \"description\":\"rewrite as a capped `for` loop\"},\
             \"evidence\":\"proved loop bound: 16\"}"
        );
        let manual = Violation {
            rule: "R6",
            rule_title: "no threads",
            message: "class extends Thread".to_string(),
            span: Span::default(),
            class: "W\n".to_string(),
            fix: Fix::Manual {
                guidance: "model concurrency as blocks".to_string(),
            },
        };
        assert_eq!(
            render_json(&manual, None),
            "{\"rule\":\"R6\",\"rule_title\":\"no threads\",\"class\":\"W\\n\",\
             \"message\":\"class extends Thread\",\
             \"span\":{\"start\":0,\"end\":0,\"line\":0,\"col\":0},\
             \"fix\":{\"kind\":\"manual\",\"guidance\":\"model concurrency as blocks\"}}"
        );
    }

    #[test]
    fn structured_evidence_is_spliced_verbatim() {
        let v = Violation {
            rule: "R13",
            rule_title: "blocks own their state",
            message: "block writes foreign state".to_string(),
            span: Span::new(4, 9, 1, 5),
            class: "Tap".to_string(),
            fix: Fix::Manual {
                guidance: "move the field into the block".to_string(),
            },
        };
        assert_eq!(
            render_json_object(&v, Some("{\"kind\":\"ownership\",\"verdict\":\"finding\"}")),
            "{\"rule\":\"R13\",\"rule_title\":\"blocks own their state\",\"class\":\"Tap\",\
             \"message\":\"block writes foreign state\",\
             \"span\":{\"start\":4,\"end\":9,\"line\":1,\"col\":5},\
             \"fix\":{\"kind\":\"manual\",\"guidance\":\"move the field into the block\"},\
             \"evidence\":{\"kind\":\"ownership\",\"verdict\":\"finding\"}}"
        );
        assert_eq!(render_json_object(&v, None), render_json(&v, None));
    }

    #[test]
    fn json_output_round_trips_through_the_codec() {
        let evidence = jtanalysis::evidence::Evidence::AliasLeak {
            verdict: jtanalysis::evidence::Verdict::Finding,
            class: "Tap".into(),
            method: "Tap.get".into(),
            field: "buf \"raw\"".into(),
            via_return: true,
            decl_span: Span::new(1, 2, 1, 2).into(),
            witness_span: Span::new(30, 41, 3, 5).into(),
            mutable_because: "int[]\telements".into(),
        };
        let v = Violation {
            rule: "R14",
            rule_title: "no aliasing of block state",
            message: "`Tap.get` leaks \"buf\"\n\u{1}".to_string(),
            span: Span::new(30, 41, 3, 5),
            class: "Tap\r".to_string(),
            fix: Fix::Automated {
                transform: "copy-out",
                description: "return a copy \\ not the field".to_string(),
            },
        };
        let structured = evidence.to_json().render();
        for line in [
            render_json_object(&v, Some(&structured)),
            render_json_object(&v, None),
            render_json(&v, Some("prose\tevidence")),
        ] {
            assert_eq!(Json::parse(&line).unwrap().render(), line);
        }
    }

    #[test]
    fn manual_fixes_have_no_transform() {
        let v = Violation {
            rule: "R6",
            rule_title: "no threads",
            message: "class extends Thread".to_string(),
            span: Span::default(),
            class: "W".to_string(),
            fix: Fix::Manual {
                guidance: "model concurrency as separate functional blocks".to_string(),
            },
        };
        assert!(!v.is_automatable());
        assert_eq!(v.suggested_transform(), None);
        assert!(v.to_string().contains("manual"));
    }
}
