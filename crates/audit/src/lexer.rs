//! A lightweight token-level Rust lexer.
//!
//! The analyzer needs just enough lexical structure to reason about
//! source files without a full parser: identifiers, punctuation,
//! literals, lifetimes, and comments, each tagged with a 1-based line
//! number. The crate deliberately avoids `syn` (the workspace builds
//! fully offline against vendored stubs), so the tricky corners of the
//! lexical grammar are handled here directly:
//!
//! * raw strings `r"…"` / `r#"…"#` with any number of hashes (and the
//!   `br#"…"#` byte variants) — no escape processing, terminated only by
//!   the matching quote-hash run;
//! * block comments nest (`/* a /* b */ c */` is one comment);
//! * `'a'` is a char literal but `'a` in `&'a str` is a lifetime — a
//!   one-character lookahead past the would-be closing quote
//!   disambiguates, with `'_'`-style escapes handled first.
//!
//! Tokens keep their text (for identifiers, literals, and comments) so
//! rules can match call sites and scan comments for `audit:allow` /
//! `CLAIM(..)` annotations.

/// What a token is; the lexer never fails — unexpected bytes become
/// [`TokenKind::Punct`] tokens so rules can keep walking the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `r#match` …).
    Ident,
    /// A lifetime such as `'a` (including `'static`, `'_`).
    Lifetime,
    /// Single punctuation byte (`.`, `!`, `[`, `{`, …).
    Punct,
    /// String literal (`"…"`), escapes left unprocessed.
    Str,
    /// Raw string literal (`r"…"`, `r##"…"##`), byte variants included.
    RawStr,
    /// Character literal (`'x'`, `'\n'`) or byte char (`b'x'`).
    Char,
    /// Byte-string literal (`b"…"`).
    ByteStr,
    /// Numeric literal (`0x1f`, `1_000`, `2.5e3`, `1.25`).
    Num,
    /// `// …` comment, doc (`///`, `//!`) or plain; text excludes the
    /// trailing newline.
    LineComment,
    /// `/* … */` comment (nesting respected), doc or plain.
    BlockComment,
}

/// One lexed token: kind, verbatim text, and the 1-based line where it
/// starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// The token's verbatim source text.
    pub text: String,
    /// 1-based line number of the token's first byte.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == 1
            && self.text.as_bytes()[0] as char == c
    }

    /// Whether this token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// The unquoted content of a plain string literal (`"x"` → `x`);
    /// `None` for other kinds. Escapes are not processed — rules only
    /// match literals that contain none.
    pub fn str_content(&self) -> Option<&str> {
        if self.kind != TokenKind::Str {
            return None;
        }
        self.text.strip_prefix('"')?.strip_suffix('"')
    }
}

/// Lexes `src` into a token stream. Never fails: malformed input
/// degrades to `Punct` tokens and an unterminated comment or literal
/// extends to end of input.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run(src)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self, text: &str) -> Vec<Token> {
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            if let Some(kind) = kind {
                self.tokens.push(Token {
                    kind,
                    text: text[start..self.pos].to_string(),
                    line,
                });
            }
        }
        self.tokens
    }

    fn peek(&self, off: usize) -> u8 {
        *self.src.get(self.pos + off).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    /// Consumes one token's worth of input; `None` means whitespace was
    /// skipped and no token should be emitted.
    fn next_kind(&mut self) -> Option<TokenKind> {
        let b = self.peek(0);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                self.bump();
                None
            }
            b'/' if self.peek(1) == b'/' => {
                while self.pos < self.src.len() && self.peek(0) != b'\n' {
                    self.bump();
                }
                Some(TokenKind::LineComment)
            }
            b'/' if self.peek(1) == b'*' => {
                self.bump();
                self.bump();
                let mut depth = 1u32;
                while self.pos < self.src.len() && depth > 0 {
                    if self.peek(0) == b'/' && self.peek(1) == b'*' {
                        self.bump();
                        self.bump();
                        depth += 1;
                    } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                        self.bump();
                        self.bump();
                        depth -= 1;
                    } else {
                        self.bump();
                    }
                }
                Some(TokenKind::BlockComment)
            }
            b'"' => {
                self.eat_string();
                Some(TokenKind::Str)
            }
            b'r' if self.peek(1) == b'"' || (self.peek(1) == b'#' && self.raw_str_ahead(1)) => {
                self.bump(); // r
                self.eat_raw_string();
                Some(TokenKind::RawStr)
            }
            b'b' if self.peek(1) == b'"' => {
                self.bump(); // b
                self.eat_string();
                Some(TokenKind::ByteStr)
            }
            b'b' if self.peek(1) == b'\'' => {
                self.bump(); // b
                self.bump(); // '
                self.eat_char_body();
                Some(TokenKind::Char)
            }
            b'b' if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') => {
                self.bump(); // b
                self.bump(); // r
                self.eat_raw_string();
                Some(TokenKind::RawStr)
            }
            b'\'' => {
                // Lifetime or char literal. `'a'` is a char; `'a` (no
                // closing quote after one "body" char, or followed by
                // more ident chars) is a lifetime.
                if self.lifetime_ahead() {
                    self.bump(); // '
                    while is_ident_continue(self.peek(0)) {
                        self.bump();
                    }
                    Some(TokenKind::Lifetime)
                } else {
                    self.bump(); // '
                    self.eat_char_body();
                    Some(TokenKind::Char)
                }
            }
            b'0'..=b'9' => {
                self.eat_number();
                Some(TokenKind::Num)
            }
            b if is_ident_start(b) => {
                // includes raw identifiers r#ident
                if b == b'r' && self.peek(1) == b'#' && is_ident_start(self.peek(2)) {
                    self.bump();
                    self.bump();
                }
                while is_ident_continue(self.peek(0)) {
                    self.bump();
                }
                Some(TokenKind::Ident)
            }
            _ => {
                self.bump();
                Some(TokenKind::Punct)
            }
        }
    }

    /// After an `r`, decides whether `#…` begins a raw string (hashes
    /// then a quote) as opposed to e.g. the raw identifier `r#match`.
    fn raw_str_ahead(&self, mut off: usize) -> bool {
        while self.peek(off) == b'#' {
            off += 1;
        }
        self.peek(off) == b'"'
    }

    /// Distinguishes `'a` / `'static` (lifetime) from `'a'` / `'\n'`
    /// (char literal) by looking one character past the candidate body.
    fn lifetime_ahead(&self) -> bool {
        let b1 = self.peek(1);
        if b1 == b'\\' {
            return false; // '\n' etc. are always chars
        }
        if !is_ident_start(b1) {
            return false; // '(' etc.: treat as char-ish, eat_char_body copes
        }
        // ident-start body: lifetime unless a closing quote follows
        // exactly one body character ('a' vs 'ab is not valid Rust, but
        // 'a' vs 'a must split correctly).
        self.peek(2) != b'\''
    }

    fn eat_string(&mut self) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
    }

    fn eat_raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            if self.bump() == b'"' {
                let mut matched = 0usize;
                while matched < hashes && self.peek(0) == b'#' {
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    break;
                }
            }
        }
    }

    /// Consumes a char literal's body and closing quote (opening quote
    /// already consumed).
    fn eat_char_body(&mut self) {
        while self.pos < self.src.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
    }

    fn eat_number(&mut self) {
        // Integer/float with underscores, hex/oct/bin prefixes,
        // exponents, and type suffixes — one greedy gulp is enough for
        // analysis purposes.
        while matches!(self.peek(0),
            b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' | b'x' | b'o' | b'_' | b'u' | b's' | b'i')
        {
            self.bump();
        }
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump();
            while matches!(self.peek(0), b'0'..=b'9' | b'_' | b'f') {
                self.bump();
            }
        }
        if matches!(self.peek(0), b'e' | b'E')
            && (self.peek(1).is_ascii_digit()
                || (matches!(self.peek(1), b'+' | b'-') && self.peek(2).is_ascii_digit()))
        {
            self.bump();
            if matches!(self.peek(0), b'+' | b'-') {
                self.bump();
            }
            while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                self.bump();
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_strings_with_hash_runs_swallow_inner_quotes() {
        let toks = kinds("let s = r#\"a \"quoted\" b\"#; next");
        let raw = toks.iter().find(|(k, _)| *k == TokenKind::RawStr).unwrap();
        assert_eq!(raw.1, "r#\"a \"quoted\" b\"#");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "next"));
    }

    #[test]
    fn longer_hash_runs_ignore_shorter_closers() {
        // `"#` inside must not terminate an r##…## string
        let toks = kinds("r##\"ends \"# not here\"## tail");
        assert_eq!(toks[0].0, TokenKind::RawStr);
        assert_eq!(toks[0].1, "r##\"ends \"# not here\"##");
        assert_eq!(toks[1], (TokenKind::Ident, "tail".to_string()));
    }

    #[test]
    fn byte_raw_strings_and_byte_strings() {
        let toks = kinds("br#\"raw bytes\"# b\"plain bytes\" b'x'");
        assert_eq!(toks[0].0, TokenKind::RawStr);
        assert_eq!(toks[1].0, TokenKind::ByteStr);
        assert_eq!(toks[2].0, TokenKind::Char);
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let toks = kinds("let r#match = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "r#match".to_string())));
    }

    #[test]
    fn block_comments_nest() {
        let toks = kinds("/* a /* b */ c */ fn");
        assert_eq!(toks.len(), 2, "{toks:?}");
        assert_eq!(
            toks[0],
            (TokenKind::BlockComment, "/* a /* b */ c */".to_string())
        );
        assert_eq!(toks[1], (TokenKind::Ident, "fn".to_string()));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = kinds("'a' '\\n' '\\'' 'a 'static '_");
        let got: Vec<TokenKind> = toks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            got,
            [
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Lifetime,
                TokenKind::Lifetime,
                TokenKind::Lifetime,
            ]
        );
        assert_eq!(toks[3].1, "'a");
        assert_eq!(toks[4].1, "'static");
    }

    #[test]
    fn lifetime_in_reference_position() {
        let toks = kinds("fn f<'a>(x: &'a str) {}");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let toks = lex("let s = \"a\nb\";\n/* c\nd */\nfn f() {}\n");
        let fn_tok = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(fn_tok.line, 5);
        let str_tok = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(str_tok.line, 1);
    }

    #[test]
    fn unterminated_literals_do_not_hang_or_panic() {
        assert_eq!(lex("\"open").len(), 1);
        assert_eq!(lex("r#\"open").len(), 1);
        assert_eq!(lex("/* open").len(), 1);
        assert_eq!(lex("'x").len(), 1);
    }

    #[test]
    fn str_content_unwraps_plain_strings_only() {
        let toks = lex("\"plain\" r\"raw\"");
        assert_eq!(toks[0].str_content(), Some("plain"));
        assert_eq!(toks[1].str_content(), None, "raw strings are not unquoted");
    }
}
