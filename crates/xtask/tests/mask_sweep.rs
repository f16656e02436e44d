//! Seeded sweep over randomly composed Rust snippets: the masker must
//! preserve byte length exactly and never leak literal or comment
//! payload bytes into the masked text, no matter how literals, nested
//! block comments, and code fragments are interleaved.
//!
//! The payloads deliberately contain the masker's own trigger
//! characters (`//`, `/*`, `"`, `'`, `#`) so a lexer-state bug that
//! re-enters comment or string mode inside a literal shows up as a
//! leaked sentinel.

use xtask::mask::{mask, LitKind};

/// Sentinel byte sequence that appears ONLY inside comment/literal
/// payloads; it must never survive into the masked text.
const SENTINEL: &str = "ZWAMP";

/// Fragments to interleave. `(text, is_payload)` — payload fragments
/// are comments/literals whose interior must be blanked.
const FRAGMENTS: &[(&str, bool)] = &[
    ("let x = 1;\n", false),
    ("fn f(a: u32) -> u32 { a }\n", false),
    ("let lt: &'static str;\n", false),
    ("let c = 'a';\n", false),
    ("if x < 3 { g() } else { h() }\n", false),
    ("// ZWAMP line comment with \"quote\" and 'tick'\n", true),
    ("/* ZWAMP /* nested ZWAMP */ still comment */\n", true),
    ("let s = \"ZWAMP // not a comment\";\n", true),
    ("let s = \"ZWAMP /* not a block */ end\";\n", true),
    ("let r = r\"ZWAMP raw with \\ backslash\";\n", true),
    ("let r = r#\"ZWAMP with \"inner quotes\" kept\"#;\n", true),
    ("let r = r##\"ZWAMP \"# not the end\"##;\n", true),
    ("let b = b\"ZWAMP byte string\";\n", true),
    ("let b = br#\"ZWAMP raw bytes\"#;\n", true),
    ("let c = '/'; // ZWAMP char then comment\n", true),
    ("let q = '\"';\n", false),
    ("let esc = \"tab\\t ZWAMP \\\"escaped\\\" end\";\n", true),
    ("/// doc: ZWAMP with `code`\nfn documented() {}\n", true),
];

/// Minimal xorshift so the sweep is reproducible without pulling in a
/// registry RNG crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn random_compositions_preserve_length_and_leak_nothing() {
    let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
    for round in 0..500 {
        let mut src = String::new();
        let nfrag = 3 + (rng.next() % 10) as usize;
        let mut payload_count = 0usize;
        for _ in 0..nfrag {
            let (frag, is_payload) = FRAGMENTS[(rng.next() as usize) % FRAGMENTS.len()];
            src.push_str(frag);
            payload_count += usize::from(is_payload);
        }

        let m = mask(&src);

        // Byte-for-byte length preservation: every diagnostic offset in
        // the masked text must be valid in the original.
        assert_eq!(
            m.text.len(),
            src.len(),
            "round {round}: length drifted\n--- source ---\n{src}\n--- masked ---\n{}",
            m.text
        );
        // Newlines survive masking, so line numbers stay aligned.
        assert_eq!(
            m.text.matches('\n').count(),
            src.matches('\n').count(),
            "round {round}: newline count drifted"
        );

        // No payload byte leaks: the sentinel only ever appears inside
        // comments and literals.
        assert!(
            !m.text.contains(SENTINEL),
            "round {round}: payload leaked into masked text\n--- source ---\n{src}\n--- masked ---\n{}",
            m.text
        );
        if payload_count > 0 {
            assert!(src.contains(SENTINEL), "round {round}: fixture broken");
        }

        // Literal spans must point back at real literal payloads in the
        // original source (the rules read them via `content()`).
        for lit in &m.literals {
            assert!(lit.start < lit.end && lit.end <= src.len());
            let body = lit.content(&src);
            match lit.kind {
                LitKind::Str | LitKind::RawStr => {
                    assert!(
                        !body.starts_with('"') || body.is_empty(),
                        "round {round}: content kept its delimiter: {body:?}"
                    );
                }
                LitKind::Char => assert!(!body.is_empty(), "round {round}: empty char"),
            }
        }
    }
}

#[test]
fn tricky_single_cases_mask_exactly() {
    // Nested block comments: Rust block comments nest; the masker must
    // track depth rather than closing at the first `*/`.
    let m = mask("/* a /* b */ c */ let x = 1;");
    assert_eq!(m.text, format!("{}let x = 1;", " ".repeat(18)));

    // A `//` inside a string is not a comment: code after it survives.
    let m = mask("let s = \"//\"; let y = 2;");
    assert!(m.text.contains("let y = 2;"));

    // A raw-string hash fence: `"#` inside the body does not terminate.
    let m = mask("let r = r##\"body \"# not end\"##; let z = 3;");
    assert!(m.text.contains("let z = 3;"));
    assert_eq!(m.literals.len(), 1);
    assert_eq!(m.literals[0].content("let r = r##\"body \"# not end\"##; let z = 3;"), "body \"# not end");

    // Char literal holding a quote, then a real comment.
    let m = mask("let c = '\"'; // gone\nlet w = 4;");
    assert!(m.text.contains("let w = 4;"));
    assert!(!m.text.contains("gone"));

    // Lifetimes are not char literals: the following code is kept.
    let m = mask("fn f<'a>(x: &'a str) -> &'a str { x } // tail\n");
    assert!(m.text.contains("fn f<'a>(x: &'a str) -> &'a str { x }"));
    assert!(!m.text.contains("tail"));
}
