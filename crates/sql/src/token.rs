//! Token definitions for the SQL lexer.

use std::fmt;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first character of the token in the input.
    pub pos: usize,
}

/// The kind of a lexical token.
///
/// Keywords are lexed as [`TokenKind::Keyword`] with an upper-cased text so
/// the parser can match case-insensitively; identifiers keep their original
/// spelling (SQL folds unquoted identifiers to lower case at binding time,
/// not lexing time).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Unquoted identifier or non-keyword word.
    Ident(String),
    /// Double-quoted identifier; quotes stripped, case preserved.
    QuotedIdent(String),
    /// A recognised SQL keyword (upper-cased).
    Keyword(Keyword),
    /// Integer literal: the unsigned magnitude as written. The parser
    /// applies any leading minus, so `-9223372036854775808` (`i64::MIN`,
    /// whose magnitude does not fit in `i64`) round-trips.
    Int(u64),
    /// Floating point literal.
    Float(f64),
    /// Single-quoted string literal with escapes resolved.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `||` string concatenation
    Concat,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::QuotedIdent(s) => write!(f, "\"{s}\""),
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Neq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Concat => write!(f, "||"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

macro_rules! keywords {
    ($($name:ident => $text:literal),+ $(,)?) => {
        /// All SQL keywords recognised by the lexer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub(crate) enum Keyword {
            $($name),+
        }

        impl Keyword {
            /// Look up a word (already upper-cased) as a keyword.
            pub(crate) fn from_upper(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$name),)+
                    _ => None,
                }
            }

            /// The canonical (upper-case) spelling.
            pub(crate) fn text(self) -> &'static str {
                match self {
                    $(Keyword::$name => $text),+
                }
            }
        }
    };
}

keywords! {
    All => "ALL",
    And => "AND",
    As => "AS",
    Asc => "ASC",
    Between => "BETWEEN",
    Bigint => "BIGINT",
    Boolean => "BOOLEAN",
    By => "BY",
    Case => "CASE",
    Create => "CREATE",
    Cross => "CROSS",
    Delete => "DELETE",
    Desc => "DESC",
    Distinct => "DISTINCT",
    Double => "DOUBLE",
    Drop => "DROP",
    Else => "ELSE",
    End => "END",
    Except => "EXCEPT",
    Exists => "EXISTS",
    Explain => "EXPLAIN",
    False => "FALSE",
    From => "FROM",
    Group => "GROUP",
    Having => "HAVING",
    If => "IF",
    In => "IN",
    Index => "INDEX",
    Inner => "INNER",
    Insert => "INSERT",
    Int => "INT",
    Integer => "INTEGER",
    Intersect => "INTERSECT",
    Into => "INTO",
    Is => "IS",
    Join => "JOIN",
    Key => "KEY",
    Left => "LEFT",
    Like => "LIKE",
    Limit => "LIMIT",
    Not => "NOT",
    Null => "NULL",
    Offset => "OFFSET",
    On => "ON",
    Or => "OR",
    Order => "ORDER",
    Outer => "OUTER",
    Precision => "PRECISION",
    Primary => "PRIMARY",
    Real => "REAL",
    Select => "SELECT",
    Set => "SET",
    Table => "TABLE",
    Text => "TEXT",
    Then => "THEN",
    True => "TRUE",
    Union => "UNION",
    Update => "UPDATE",
    Values => "VALUES",
    Varchar => "VARCHAR",
    When => "WHEN",
    Where => "WHERE",
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_roundtrip() {
        for kw in [
            Keyword::Select,
            Keyword::From,
            Keyword::Where,
            Keyword::Union,
        ] {
            assert_eq!(Keyword::from_upper(kw.text()), Some(kw));
        }
    }

    #[test]
    fn keyword_lookup_rejects_identifiers() {
        assert_eq!(Keyword::from_upper("EMP"), None);
        assert_eq!(
            Keyword::from_upper("select"),
            None,
            "lookup expects upper case"
        );
    }

    #[test]
    fn token_display_is_sql_like() {
        assert_eq!(TokenKind::Neq.to_string(), "<>");
        assert_eq!(TokenKind::Str("a'b".into()).to_string(), "'a'b'");
        assert_eq!(TokenKind::Keyword(Keyword::Select).to_string(), "SELECT");
    }
}
