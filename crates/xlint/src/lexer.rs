//! A minimal Rust lexer: the token stream the rule visitors walk.
//!
//! The offline build environment has no `syn`, so `xlint` carries its own
//! lexer. It does not build a syntax tree — every rule in this workspace is
//! expressible over a token stream with line numbers and brace depths — but
//! it is *string-accurate*: comments, string/char literals, raw strings and
//! lifetimes are recognised exactly, so a rule never fires on text inside a
//! literal or a comment, and allow directives inside comments are recovered
//! with their line numbers intact.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Token text. For string/char literals this is the raw source slice
    /// (quotes included); rules never need to interpret literal contents.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// `{`-nesting depth *at* this token (the `{` itself counts inside).
    pub brace_depth: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `for`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal.
    Number,
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// Single punctuation character (`.`, `:`, `(`, `{`, …).
    Punct,
}

/// A comment with its position — kept out of the token stream, but scanned
/// for `xlint: allow` directives.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based line of the comment's last character (block comments span).
    pub end_line: u32,
}

/// Lexer output: tokens plus the comments that were stripped.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments. Unterminated literals or comments
/// are tolerated (the remainder is swallowed) — the tool must never panic on
/// the code it audits.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut depth: u32 = 0;

    macro_rules! push_tok {
        ($kind:expr, $start:expr, $end:expr, $line:expr) => {
            out.tokens.push(Token {
                kind: $kind,
                text: src[$start..$end].to_string(),
                line: $line,
                brace_depth: depth,
            })
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            // Line comment (also doc comments).
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                    end_line: line,
                });
            }
            // Block comment, nested per Rust rules.
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut nest = 1u32;
                i += 2;
                while i < b.len() && nest > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        nest += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        nest -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line: start_line,
                    end_line: line,
                });
            }
            // `r"…"`/`b"…"`/`br#"…"#` prefixes are resolved first; what is
            // left over is a plain identifier or keyword.
            c if c == b'_' || c.is_ascii_alphabetic() => {
                if let Some((end, lines)) = try_prefixed_string(src, i) {
                    let start_line = line;
                    line += lines;
                    push_tok!(TokenKind::Literal, i, end, start_line);
                    i = end;
                } else {
                    let start = i;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    // `r#ident` raw identifiers: keep the `r#` out so rules
                    // match on the name itself.
                    push_tok!(TokenKind::Ident, start, i, line);
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                    && !(b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.')
                {
                    i += 1;
                }
                push_tok!(TokenKind::Number, start, i, line);
            }
            b'"' => {
                let (end, lines) = scan_string(src, i, b'"');
                let start_line = line;
                line += lines;
                push_tok!(TokenKind::Literal, i, end, start_line);
                i = end;
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is `'` + ident not
                // followed by a closing `'`.
                if let Some(end) = scan_char(src, i) {
                    push_tok!(TokenKind::Literal, i, end, line);
                    i = end;
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    push_tok!(TokenKind::Lifetime, start, i, line);
                }
            }
            b'{' => {
                depth += 1;
                push_tok!(TokenKind::Punct, i, i + 1, line);
                i += 1;
            }
            b'}' => {
                push_tok!(TokenKind::Punct, i, i + 1, line);
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => {
                push_tok!(TokenKind::Punct, i, i + 1, line);
                i += 1;
            }
        }
    }
    out
}

/// If `src[i..]` starts a raw/byte string (`r"`, `r#"`, `b"`, `br#"` …),
/// returns `(end_index, newlines_consumed)`.
fn try_prefixed_string(src: &str, i: usize) -> Option<(usize, u32)> {
    let b = src.as_bytes();
    let mut j = i;
    let mut raw = false;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        raw = true;
        j += 1;
    }
    if j == i {
        return None;
    }
    if raw {
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j >= b.len() || b[j] != b'"' {
            return None; // `r#ident` raw identifier or plain ident
        }
        j += 1;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        let mut lines = 0u32;
        while j < b.len() {
            if b[j] == b'\n' {
                lines += 1;
            }
            if b[j] == b'"'
                && b[j..].len() >= closer.len()
                && &b[j..j + closer.len()] == closer.as_slice()
            {
                return Some((j + closer.len(), lines));
            }
            j += 1;
        }
        Some((b.len(), lines))
    } else {
        // `b"..."` byte string (non-raw).
        if j < b.len() && b[j] == b'"' {
            let (end, lines) = scan_string(src, j, b'"');
            Some((end, lines))
        } else {
            None
        }
    }
}

/// Scans a (non-raw) string starting at the opening quote `src[i]`;
/// returns `(one_past_closing_quote, newlines_consumed)`.
fn scan_string(src: &str, i: usize, quote: u8) -> (usize, u32) {
    let b = src.as_bytes();
    let mut j = i + 1;
    let mut lines = 0u32;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                lines += 1;
                j += 1;
            }
            c if c == quote => return (j + 1, lines),
            _ => j += 1,
        }
    }
    (b.len(), lines)
}

/// Scans a char literal starting at `src[i] == '\''`; `None` if this is a
/// lifetime instead.
fn scan_char(src: &str, i: usize) -> Option<usize> {
    let b = src.as_bytes();
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        j += 2;
        // Escapes like `\u{1F600}`.
        if j <= b.len() && j >= 1 && b.get(j - 1) == Some(&b'u') && b.get(j) == Some(&b'{') {
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            j += 1;
        }
        if b.get(j) == Some(&b'\'') {
            return Some(j + 1);
        }
        return None;
    }
    // `'x'` — a single character (possibly multibyte) then a quote.
    let rest = &src[j..];
    let mut chars = rest.char_indices();
    let (_, _first) = chars.next()?;
    let (next_idx, _) = chars.next()?;
    if rest.as_bytes().get(next_idx) == Some(&b'\'') {
        return Some(j + next_idx + 1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
            // a HashMap in a comment
            /* unwrap() in /* a nested */ block */
            let s = "thread_rng() inside a string";
            let r = r#"SystemTime::now() in a raw string"#;
            let c = 'x';
            real_ident();
        "##;
        let names = idents(src);
        assert!(names.contains(&"real_ident".to_string()));
        assert!(!names
            .iter()
            .any(|n| n == "HashMap" || n == "unwrap" || n == "thread_rng"));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
    }

    #[test]
    fn brace_depth_and_lines_are_tracked() {
        let src = "fn a() {\n    inner();\n}\nfn b() {}\n";
        let lexed = lex(src);
        let inner = lexed.tokens.iter().find(|t| t.text == "inner").unwrap();
        assert_eq!(inner.line, 2);
        assert_eq!(inner.brace_depth, 1);
        let b = lexed.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.brace_depth, 0);
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let lexed = lex(r#"let s = "a \" b"; after();"#);
        assert!(lexed.tokens.iter().any(|t| t.text == "after"));
    }
}
