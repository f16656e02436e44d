//! Source masking: blank out comments and string/char literals so the
//! rule scanners can match tokens without tripping on prose, while the
//! comment text itself is collected for `lint:allow` parsing and the
//! literal spans are collected for the lexer ([`crate::lex`]), which
//! needs to recover string contents (e.g. `Pcg32::named` stream names).

/// What kind of literal a recorded span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// A `"…"` or `b"…"` string.
    Str,
    /// A raw `r"…"` / `r#"…"#` / `br#"…"#` string.
    RawStr,
    /// A `'…'` or `b'…'` char literal.
    Char,
}

/// Byte span of one string/char literal in the original source,
/// including its prefix (`b`, `r`, `br`, hashes) and quotes.
#[derive(Debug, Clone, Copy)]
pub struct Literal {
    /// Start offset (inclusive) of the prefix or opening quote.
    pub start: usize,
    /// End offset (exclusive), just past the closing quote/hashes.
    pub end: usize,
    /// Literal family, used to strip delimiters when extracting content.
    pub kind: LitKind,
}

impl Literal {
    /// The literal's content with prefix, hashes, and quotes stripped,
    /// sliced out of the original `source` the mask was built from.
    /// Escapes are left un-processed (`\n` stays two characters).
    pub fn content<'a>(&self, source: &'a str) -> &'a str {
        let text = &source[self.start..self.end];
        let quote = if self.kind == LitKind::Char { '\'' } else { '"' };
        let open = match text.find(quote) {
            Some(i) => i + 1,
            None => return "",
        };
        let close = match text.rfind(quote) {
            Some(i) if i >= open => i,
            _ => text.len(),
        };
        &text[open..close]
    }
}

/// The result of masking one source file.
#[derive(Debug)]
pub struct Masked {
    /// The source with every comment and string/char literal replaced by
    /// spaces (newlines preserved), byte-for-byte the same length.
    pub text: String,
    /// `(line, text)` of every comment, 1-based line of the comment start.
    /// Block comments contribute one entry containing the full body.
    pub comments: Vec<(u32, String)>,
    /// Spans of every string/char literal, in source order.
    pub literals: Vec<Literal>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Returns true when a `'` at `i` starts a lifetime (or loop label), not
/// a char literal: `'a`, `'static`, `'_` followed by no closing quote.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let Some(&next) = bytes.get(i + 1) else {
        return true;
    };
    if !(next.is_ascii_alphabetic() || next == b'_') {
        return false;
    }
    // `'a'` is a char literal; `'a,`/`'a>`/`'a ` is a lifetime.
    bytes.get(i + 2) != Some(&b'\'')
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Masks comments and literals out of `source`.
pub fn mask(source: &str) -> Masked {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut comments = Vec::new();
    let mut literals: Vec<Literal> = Vec::new();

    let mut state = State::Normal;
    let mut line: u32 = 1;
    let mut comment_start: usize = 0;
    let mut comment_line: u32 = 1;
    let mut lit_start: usize = 0;
    let mut lit_kind = LitKind::Str;
    let mut i = 0;

    macro_rules! blank {
        ($idx:expr) => {
            if out[$idx] != b'\n' {
                out[$idx] = b' ';
            }
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Normal => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    comment_start = i;
                    comment_line = line;
                    blank!(i);
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    comment_start = i;
                    comment_line = line;
                    blank!(i);
                    blank!(i + 1);
                    i += 1;
                } else if b == b'"' {
                    // Find the raw/byte prefix ending at this quote, if
                    // any: `"` | `b"` | `r"` | `br"` | `r#…#"` | `br#…#"`.
                    // The prefix letters must not be the tail of a longer
                    // identifier (`bar"` is not a raw string).
                    let mut j = i;
                    while j > 0 && bytes[j - 1] == b'#' {
                        j -= 1;
                    }
                    let hashes = i - j;
                    let mut prefix = j;
                    let is_raw = j > 0 && bytes[j - 1] == b'r' && {
                        let mut p = j - 1;
                        if p > 0 && bytes[p - 1] == b'b' {
                            p -= 1;
                        }
                        let free = p == 0 || !is_ident_byte(bytes[p - 1]);
                        if free {
                            prefix = p;
                        }
                        free
                    };
                    if is_raw {
                        state = State::RawStr(hashes as u32);
                        lit_kind = LitKind::RawStr;
                    } else {
                        if j == i
                            && i > 0
                            && bytes[i - 1] == b'b'
                            && (i < 2 || !is_ident_byte(bytes[i - 2]))
                        {
                            prefix = i - 1;
                        }
                        state = State::Str;
                        lit_kind = LitKind::Str;
                    }
                    lit_start = prefix;
                    // The prefix (`b`, `r`, `#`s, `"`) holds no newline.
                    out[prefix..=i].fill(b' ');
                } else if b == b'\'' && !is_lifetime(bytes, i) {
                    state = State::Char;
                    lit_kind = LitKind::Char;
                    lit_start = i;
                    if i > 0 && bytes[i - 1] == b'b' && (i < 2 || !is_ident_byte(bytes[i - 2]))
                    {
                        lit_start = i - 1;
                        blank!(i - 1);
                    }
                    blank!(i);
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    comments.push((
                        comment_line,
                        source[comment_start..i].trim().to_string(),
                    ));
                    state = State::Normal;
                } else {
                    blank!(i);
                }
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    blank!(i);
                    blank!(i + 1);
                    i += 1;
                    if depth == 1 {
                        comments.push((
                            comment_line,
                            source[comment_start..=i].trim().to_string(),
                        ));
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    blank!(i);
                    blank!(i + 1);
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    blank!(i);
                }
            }
            State::Str => {
                if b == b'\\' {
                    blank!(i);
                    if i + 1 < bytes.len() {
                        blank!(i + 1);
                        i += 1;
                    }
                } else if b == b'"' {
                    blank!(i);
                    literals.push(Literal {
                        start: lit_start,
                        end: i + 1,
                        kind: lit_kind,
                    });
                    state = State::Normal;
                } else {
                    blank!(i);
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' {
                    let n = hashes as usize;
                    let closes = (1..=n).all(|k| bytes.get(i + k) == Some(&b'#'));
                    blank!(i);
                    if closes {
                        for k in 1..=n {
                            blank!(i + k);
                        }
                        i += n;
                        literals.push(Literal {
                            start: lit_start,
                            end: i + 1,
                            kind: lit_kind,
                        });
                        state = State::Normal;
                    }
                } else {
                    blank!(i);
                }
            }
            State::Char => {
                if b == b'\\' {
                    blank!(i);
                    if i + 1 < bytes.len() {
                        blank!(i + 1);
                        i += 1;
                    }
                } else if b == b'\'' {
                    blank!(i);
                    literals.push(Literal {
                        start: lit_start,
                        end: i + 1,
                        kind: lit_kind,
                    });
                    state = State::Normal;
                } else {
                    blank!(i);
                }
            }
        }
        if bytes[i] == b'\n' {
            line += 1;
        }
        i += 1;
    }
    match state {
        State::LineComment => {
            comments.push((comment_line, source[comment_start..].trim().to_string()));
        }
        State::Str | State::RawStr(_) | State::Char => {
            // Unterminated literal at EOF: close the span so the lexer
            // still skips it instead of reading blanked bytes.
            literals.push(Literal {
                start: lit_start,
                end: bytes.len(),
                kind: lit_kind,
            });
        }
        _ => {}
    }

    Masked {
        // Only ASCII bytes were overwritten (with spaces), and multi-byte
        // UTF-8 sequences are either untouched or blanked whole, so this
        // cannot produce invalid UTF-8.
        text: String::from_utf8(out).expect("masking preserves UTF-8"),
        comments,
        literals,
    }
}

/// 1-based `(line, col)` of byte `offset` in `text`.
pub fn line_col(text: &str, offset: usize) -> (u32, u32) {
    let mut line = 1u32;
    let mut line_start = 0usize;
    for (i, b) in text.bytes().enumerate() {
        if i >= offset {
            break;
        }
        if b == b'\n' {
            line += 1;
            line_start = i + 1;
        }
    }
    (line, (offset - line_start) as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_comments_and_collects_text() {
        let m = mask("let x = 1; // Instant::now here\nlet y = 2;\n");
        assert!(!m.text.contains("Instant"));
        assert_eq!(m.comments.len(), 1);
        assert_eq!(m.comments[0].0, 1);
        assert!(m.comments[0].1.contains("Instant::now"));
        assert_eq!(m.text.len(), 43);
    }

    #[test]
    fn masks_strings_but_not_code() {
        let m = mask("call(\"Instant::now\"); Instant::now();");
        let first = m.text.find("Instant").expect("code occurrence kept");
        assert_eq!(first, 22);
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask("a /* x /* y */ z */ b");
        assert_eq!(m.text, "a                   b");
        assert_eq!(m.comments.len(), 1);
    }

    #[test]
    fn raw_strings_masked() {
        let m = mask(r###"let s = r#"Instant::now"#; x()"###);
        assert!(!m.text.contains("Instant"));
        assert!(m.text.contains("x()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = mask("fn f<'a>(x: &'a str, c: char) { let y = 'q'; g(x, c, y) }");
        assert!(m.text.contains("&'a str"));
        assert!(!m.text.contains("'q'"));
    }

    #[test]
    fn line_col_is_one_based() {
        let text = "ab\ncde\n";
        assert_eq!(line_col(text, 0), (1, 1));
        assert_eq!(line_col(text, 4), (2, 2));
    }

    #[test]
    fn literal_spans_and_contents_recorded() {
        let src = "f(\"fault.loss\", 'x', b\"bytes\")";
        let m = mask(src);
        let contents: Vec<&str> = m.literals.iter().map(|l| l.content(src)).collect();
        assert_eq!(contents, vec!["fault.loss", "x", "bytes"]);
        assert_eq!(m.literals[0].kind, LitKind::Str);
        assert_eq!(m.literals[1].kind, LitKind::Char);
        // The `b` prefix is part of the span (and blanked).
        assert_eq!(&src[m.literals[2].start..m.literals[2].end], "b\"bytes\"");
        assert!(!m.text.contains('b'), "byte-string prefix blanked: {}", m.text);
    }

    #[test]
    fn raw_string_prefix_and_hashes_blanked() {
        let src = r###"g(r#"x"#)"###;
        let m = mask(src);
        assert_eq!(m.text, "g(      )");
        assert_eq!(m.literals.len(), 1);
        assert_eq!(m.literals[0].content(src), "x");
        assert_eq!(m.literals[0].kind, LitKind::RawStr);
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string_prefix() {
        // `br`/`r` must be standalone prefixes, not identifier tails; the
        // macro-ish adjacency below must lex the quote as a plain string.
        let src = "attr\"text with \\\" escape\" rest";
        let m = mask(src);
        assert!(m.text.starts_with("attr"), "{}", m.text);
        assert!(m.text.contains("rest"));
        assert_eq!(m.literals.len(), 1);
    }

    #[test]
    fn byte_char_literal_prefix_blanked() {
        let src = "if c == b'/' { h() }";
        let m = mask(src);
        assert_eq!(m.text, "if c ==      { h() }");
        assert_eq!(m.literals[0].kind, LitKind::Char);
        assert_eq!(m.literals[0].content(src), "/");
    }

    #[test]
    fn adjacent_slash_char_literals_do_not_open_a_comment() {
        // `'/'` twice in a row leaves no `//` in the masked text.
        let src = "m('/', '/'); after()";
        let m = mask(src);
        assert!(!m.text.contains("//"), "{}", m.text);
        assert!(m.text.contains("after()"));
    }

    #[test]
    fn char_literal_containing_quote_and_escapes() {
        let src = "p('\"', '\\'', '\\\\')";
        let m = mask(src);
        assert_eq!(m.literals.len(), 3);
        assert!(m.text.contains("p("));
        assert!(!m.text.contains('"'));
    }

    #[test]
    fn raw_string_with_embedded_quotes_and_fewer_hashes() {
        let src = r####"let s = r##"quote " and "# inside"##; tail()"####;
        let m = mask(src);
        assert!(!m.text.contains("quote"));
        assert!(!m.text.contains("inside"));
        assert!(m.text.contains("tail()"));
        assert_eq!(m.literals.len(), 1);
        assert_eq!(m.literals[0].content(src), "quote \" and \"# inside");
    }

    #[test]
    fn unterminated_literal_spans_to_eof() {
        let src = "x(\"dangling";
        let m = mask(src);
        assert_eq!(m.literals.len(), 1);
        assert_eq!(m.literals[0].end, src.len());
        assert!(!m.text.contains("dangling"));
    }
}
