//! Hand-written SQL lexer.
//!
//! Produces a flat token stream terminated by [`TokenKind::Eof`]. Supports
//! line comments (`-- ...`), block comments (`/* ... */`), single-quoted
//! strings with `''` escaping, double-quoted identifiers with `""` escaping,
//! integer and decimal literals (including exponent forms such as `1e-3`).

use crate::token::{Keyword, Token, TokenKind};
use std::fmt;

/// An error produced while tokenizing SQL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error was detected.
    pub pos: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `input` into a vector of tokens ending with `Eof`.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(input).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            src: input.as_bytes(),
            pos: 0,
            out: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn err(&self, message: impl Into<String>, pos: usize) -> LexError {
        LexError {
            message: message.into(),
            pos,
        }
    }

    fn push(&mut self, kind: TokenKind, pos: usize) {
        self.out.push(Token { kind, pos });
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.out);
            };
            match c {
                b'(' => {
                    self.bump();
                    self.push(TokenKind::LParen, start);
                }
                b')' => {
                    self.bump();
                    self.push(TokenKind::RParen, start);
                }
                b',' => {
                    self.bump();
                    self.push(TokenKind::Comma, start);
                }
                b';' => {
                    self.bump();
                    self.push(TokenKind::Semicolon, start);
                }
                b'.' => {
                    // `.5` style floats are not supported; `.` is always a separator.
                    self.bump();
                    self.push(TokenKind::Dot, start);
                }
                b'*' => {
                    self.bump();
                    self.push(TokenKind::Star, start);
                }
                b'+' => {
                    self.bump();
                    self.push(TokenKind::Plus, start);
                }
                b'-' => {
                    self.bump();
                    self.push(TokenKind::Minus, start);
                }
                b'/' => {
                    self.bump();
                    self.push(TokenKind::Slash, start);
                }
                b'%' => {
                    self.bump();
                    self.push(TokenKind::Percent, start);
                }
                b'=' => {
                    self.bump();
                    self.push(TokenKind::Eq, start);
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        self.push(TokenKind::Neq, start);
                    } else {
                        return Err(self.err("expected '=' after '!'", start));
                    }
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'=') => {
                            self.bump();
                            self.push(TokenKind::Le, start);
                        }
                        Some(b'>') => {
                            self.bump();
                            self.push(TokenKind::Neq, start);
                        }
                        _ => self.push(TokenKind::Lt, start),
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        self.push(TokenKind::Ge, start);
                    } else {
                        self.push(TokenKind::Gt, start);
                    }
                }
                b'|' => {
                    self.bump();
                    if self.peek() == Some(b'|') {
                        self.bump();
                        self.push(TokenKind::Concat, start);
                    } else {
                        return Err(self.err("expected '|' after '|'", start));
                    }
                }
                b'\'' => self.lex_string(start)?,
                b'"' => self.lex_quoted_ident(start)?,
                b'0'..=b'9' => self.lex_number(start)?,
                c if c == b'_' || c.is_ascii_alphabetic() => self.lex_word(start),
                other => {
                    return Err(self.err(format!("unexpected character {:?}", other as char), start))
                }
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.err("unterminated block comment", start)),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<(), LexError> {
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            match self.bump() {
                Some(b'\'') => {
                    if self.peek() == Some(b'\'') {
                        self.bump();
                        text.push('\'');
                    } else {
                        self.push(TokenKind::Str(text), start);
                        return Ok(());
                    }
                }
                Some(c) => text.push(c as char),
                None => return Err(self.err("unterminated string literal", start)),
            }
        }
    }

    fn lex_quoted_ident(&mut self, start: usize) -> Result<(), LexError> {
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            match self.bump() {
                Some(b'"') => {
                    if self.peek() == Some(b'"') {
                        self.bump();
                        text.push('"');
                    } else {
                        if text.is_empty() {
                            return Err(self.err("empty quoted identifier", start));
                        }
                        self.push(TokenKind::QuotedIdent(text), start);
                        return Ok(());
                    }
                }
                Some(c) => text.push(c as char),
                None => return Err(self.err("unterminated quoted identifier", start)),
            }
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<(), LexError> {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save = self.pos;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                // Not an exponent after all (e.g. `1e` followed by ident char);
                // back off and let the word lexer complain if needed.
                self.pos = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err(format!("invalid float literal {text:?}"), start))?;
            self.push(TokenKind::Float(v), start);
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| self.err(format!("integer literal out of range: {text}"), start))?;
            self.push(TokenKind::Int(v), start);
        }
        Ok(())
    }

    fn lex_word(&mut self, start: usize) {
        while matches!(self.peek(), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii word");
        let upper = text.to_ascii_uppercase();
        match Keyword::from_upper(&upper) {
            Some(kw) => self.push(TokenKind::Keyword(kw), start),
            None => self.push(TokenKind::Ident(text.to_string()), start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let ks = kinds("SELECT a, b FROM t WHERE a = 1");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("b".into()),
                TokenKind::Keyword(Keyword::From),
                TokenKind::Ident("t".into()),
                TokenKind::Keyword(Keyword::Where),
                TokenKind::Ident("a".into()),
                TokenKind::Eq,
                TokenKind::Int(1),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("select")[0], TokenKind::Keyword(Keyword::Select));
        assert_eq!(kinds("SeLeCt")[0], TokenKind::Keyword(Keyword::Select));
    }

    #[test]
    fn lexes_operators() {
        let ks = kinds("<= >= <> != = < > || + - * / %");
        assert_eq!(
            ks,
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Neq,
                TokenKind::Neq,
                TokenKind::Eq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Concat,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_string_with_escaped_quote() {
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it's".into()));
    }

    #[test]
    fn lexes_quoted_identifier() {
        assert_eq!(
            kinds("\"Mixed Case\"")[0],
            TokenKind::QuotedIdent("Mixed Case".into())
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("3.5")[0], TokenKind::Float(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::Float(0.25));
    }

    #[test]
    fn dot_after_integer_is_qualified_name_not_float() {
        // `t1.c` style access where the qualifier ends in a digit.
        let ks = kinds("a1.b");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a1".into()),
                TokenKind::Dot,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("SELECT -- comment\n 1 /* block\n comment */ + 2");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Int(1),
                TokenKind::Plus,
                TokenKind::Int(2),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("\"abc").is_err());
        assert!(tokenize("/* abc").is_err());
    }

    #[test]
    fn error_positions_point_at_offender() {
        let err = tokenize("a = 'x").unwrap_err();
        assert_eq!(err.pos, 4);
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(tokenize("a ? b").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a | b").is_err());
    }

    #[test]
    fn huge_integer_literal_is_error() {
        assert!(tokenize("99999999999999999999999").is_err());
    }
}
