//! A small textual query language for TP joins with negation and TP set
//! operations.
//!
//! Grammar (one query per string, case-insensitive keywords):
//!
//! ```text
//! query   := setexpr | snapshot
//! snapshot:= (SAVE | LOAD) SNAPSHOT 'path'
//! setexpr := term ((UNION | INTERSECT | EXCEPT) term)* [strategy | parallel]*
//! term    := '(' setexpr ')' | select
//! select  := SELECT cols FROM ident [join] [where] [strategy | parallel]*
//! cols    := '*' | ident (',' ident)*
//! join    := TP jkind JOIN ident ON cond (AND cond)*
//! jkind   := INNER | LEFT [OUTER] | RIGHT [OUTER] | FULL [OUTER] | ANTI
//! cond    := ident '.' ident cmp ident '.' ident
//! where   := WHERE pred (AND pred)*
//! pred    := ident cmp (literal | param)
//! cmp     := '=' | '<>' | '<' | '<=' | '>' | '>='
//! literal := integer | float | 'string' | TRUE | FALSE  -- '' escapes a quote
//! float   := integer '.' digits* [exp] | integer exp
//! exp     := (e | E) [+ | -] digits
//! param   := '$' integer          -- 1-based placeholder, bound at execution
//! strategy:= STRATEGY (NJ | TA)
//! parallel:= PARALLEL integer
//! ```
//!
//! `UNION`, `INTERSECT` and `EXCEPT` chain left-associatively at a single
//! precedence level (`a UNION b EXCEPT c` is `(a UNION b) EXCEPT c`);
//! parentheses override the grouping. A `STRATEGY`/`PARALLEL` suffix binds
//! to the nearest enclosing construct that can accept it: a select with a
//! TP join consumes its own suffixes, otherwise they apply to the set
//! operation (where `STRATEGY` is rejected — the set operations always run
//! on the NJ window machinery). `PARALLEL n` is accepted for source
//! compatibility and ignored: every statement runs on one thread.
//!
//! A statement may nest parentheses at most 64 levels deep and contain at
//! most 100 set operations; anything deeper is a [`ParseError`], so no
//! statement can exhaust the stack of the thread that runs it.
//!
//! Examples: `SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc STRATEGY TA`,
//! `SELECT Name FROM a WHERE Loc = $1` (a parameterized statement — prepare
//! it with [`crate::Session::prepare`] and bind a value per placeholder),
//! `SELECT * FROM a UNION SELECT * FROM b PARALLEL 2`.
//!
//! A literal is read as `EXECUTE` reads a parameter: digits are an exact
//! `i64`, a `.` or an exponent makes a `Float`, so the `{:?}` form a float
//! is written in (`1.0`, `1e16`, `1.5e-7`) reads back as the same value.
//! `NaN` and `inf` have no literal form in query text; bind them to a `$n`
//! placeholder.
//!
//! Parse errors ([`ParseError`]) carry the byte span of the failure and the
//! offending token's lexeme.

use crate::error::{ParseError, Span};
use crate::expr::{LiteralPredicate, Operand};
use crate::plan::{JoinStrategy, LogicalPlan};
use tpdb_core::{CompareOp, ThetaCondition, TpJoinKind, TpSetOpKind};
use tpdb_storage::Value;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    /// A literal of digits (with an optional `-`), read exactly.
    Int(i64),
    /// A literal holding a `.` or an exponent.
    Float(f64),
    Str(String),
    /// A `$n` parameter placeholder (1-based).
    Param(usize),
    Star,
    Comma,
    Dot,
    LParen,
    RParen,
    Cmp(String),
}

impl Token {
    /// The lexeme as it (roughly) appeared in the input, for error
    /// messages and [`ParseError::token`].
    fn lexeme(&self) -> String {
        match self {
            Token::Ident(s) => s.clone(),
            Token::Int(n) => n.to_string(),
            Token::Float(n) => n.to_string(),
            Token::Str(s) => format!("'{s}'"),
            Token::Param(i) => format!("${i}"),
            Token::Star => "*".to_owned(),
            Token::Comma => ",".to_owned(),
            Token::Dot => ".".to_owned(),
            Token::LParen => "(".to_owned(),
            Token::RParen => ")".to_owned(),
            Token::Cmp(op) => op.clone(),
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<(Token, Span)>, ParseError> {
    let mut tokens = Vec::new();
    let bytes: Vec<(usize, char)> = input.char_indices().collect();
    let end = input.len();
    /// Byte offset of the character at position `i`, or the input length.
    fn offset(bytes: &[(usize, char)], i: usize, end: usize) -> usize {
        bytes.get(i).map_or(end, |&(o, _)| o)
    }
    let mut i = 0;
    while i < bytes.len() {
        let (start, c) = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '*' | ',' | '.' | '(' | ')' | '=' => {
                let token = match c {
                    '*' => Token::Star,
                    ',' => Token::Comma,
                    '.' => Token::Dot,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    _ => Token::Cmp("=".into()),
                };
                i += 1;
                tokens.push((token, Span::new(start, offset(&bytes, i, end))));
            }
            '<' | '>' => {
                let mut op = c.to_string();
                if i + 1 < bytes.len()
                    && (bytes[i + 1].1 == '=' || (c == '<' && bytes[i + 1].1 == '>'))
                {
                    op.push(bytes[i + 1].1);
                    i += 1;
                }
                i += 1;
                tokens.push((Token::Cmp(op), Span::new(start, offset(&bytes, i, end))));
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(ParseError::new("unterminated string literal")
                                .at(Span::new(start, end)))
                        }
                        // `''` is a quote inside the literal
                        Some((_, '\'')) if matches!(bytes.get(i + 1), Some((_, '\''))) => {
                            s.push('\'');
                            i += 2;
                        }
                        Some((_, '\'')) => break,
                        Some(&(_, c)) => {
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                i += 1; // closing quote
                tokens.push((Token::Str(s), Span::new(start, offset(&bytes, i, end))));
            }
            '$' => {
                i += 1;
                let digits_start = i;
                while i < bytes.len() && bytes[i].1.is_ascii_digit() {
                    i += 1;
                }
                let span = Span::new(start, offset(&bytes, i, end));
                let digits: String = bytes[digits_start..i].iter().map(|&(_, c)| c).collect();
                let index: usize = digits.parse().map_err(|_| {
                    ParseError::new("expected a parameter placeholder like $1 after '$'")
                        .at(span)
                        .with_token("$")
                })?;
                if index == 0 {
                    return Err(ParseError::new(
                        "parameter placeholders are 1-based ($1, $2, ...)",
                    )
                    .at(span)
                    .with_token("$0"));
                }
                tokens.push((Token::Param(index), span));
            }
            c if c.is_ascii_digit() || c == '-' => {
                i += 1;
                while i < bytes.len() && (bytes[i].1.is_ascii_digit() || bytes[i].1 == '.') {
                    i += 1;
                }
                // An exponent (`e16`, `E+3`, `e-7`) when digits follow it.
                let digit_at = |j: usize| bytes.get(j).is_some_and(|&(_, c)| c.is_ascii_digit());
                if matches!(bytes.get(i), Some((_, 'e' | 'E'))) {
                    let sign = usize::from(matches!(bytes.get(i + 1), Some((_, '+' | '-'))));
                    if digit_at(i + 1 + sign) {
                        i += 1 + sign;
                        while digit_at(i) {
                            i += 1;
                        }
                    }
                }
                let span = Span::new(start, offset(&bytes, i, end));
                let text = &input[span.start..span.end];
                let digits = text.strip_prefix('-').unwrap_or(text);
                let token = if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                    text.parse().map(Token::Int).map_err(|_| {
                        ParseError::new(format!("integer literal out of range: {text}"))
                    })
                } else {
                    text.parse()
                        .map(Token::Float)
                        .map_err(|_| ParseError::new(format!("invalid number: {text}")))
                };
                tokens.push((token.map_err(|e| e.at(span).with_token(text))?, span));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let from = i;
                while i < bytes.len() && (bytes[i].1.is_alphanumeric() || bytes[i].1 == '_') {
                    i += 1;
                }
                let span = Span::new(start, offset(&bytes, i, end));
                tokens.push((
                    Token::Ident(bytes[from..i].iter().map(|&(_, c)| c).collect()),
                    span,
                ));
            }
            other => {
                return Err(ParseError::new(format!("unexpected character: {other}"))
                    .at(Span::new(start, start + other.len_utf8()))
                    .with_token(other.to_string()))
            }
        }
    }
    Ok(tokens)
}

/// The deepest parenthesis nesting a statement may use. Each level costs
/// the parser two stack frames.
const MAX_NESTING: usize = 64;

/// The most set operations one statement may contain. Each adds a level to
/// the plan tree, which the planner, `EXPLAIN`, the executing operators and
/// the plan's drop each walk recursively. With [`MAX_NESTING`] this bounds
/// the stack any statement needs: a debug build overflows a 2 MiB thread
/// (the stack of a server connection) at about 200 chained set operations
/// or 1 000 parentheses, so the deepest accepted statement runs there with
/// half of it to spare.
const MAX_SET_OPERATIONS: usize = 100;

struct Parser {
    tokens: Vec<(Token, Span)>,
    pos: usize,
    /// Byte length of the input (end-of-input error position).
    end: usize,
    /// Open parentheses around the current token.
    nesting: usize,
    /// Set operations parsed so far.
    set_operations: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<(Token, Span)> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The span of the *current* (not yet consumed) token, or an empty span
    /// at the end of the input.
    fn here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map_or(Span::empty(self.end), |&(_, s)| s)
    }

    /// The span of the most recently consumed token.
    fn previous(&self) -> Span {
        self.pos
            .checked_sub(1)
            .and_then(|p| self.tokens.get(p))
            .map_or(Span::empty(self.end), |&(_, s)| s)
    }

    /// A "expected X, found Y" error pointing at the current token (or end
    /// of input).
    fn expected(&self, what: &str) -> ParseError {
        match self.tokens.get(self.pos) {
            Some((token, span)) => {
                ParseError::new(format!("expected {what}, found '{}'", token.lexeme()))
                    .at(*span)
                    .with_token(token.lexeme())
            }
            None => ParseError::new(format!("expected {what}, found end of input"))
                .at(Span::empty(self.end)),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.expected(kw)),
        }
    }

    fn accept_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        if matches!(self.peek(), Some(Token::Ident(_))) {
            if let Some((Token::Ident(s), _)) = self.next() {
                return Ok(s);
            }
        }
        Err(self.expected("identifier"))
    }

    fn expect_cmp(&mut self) -> Result<String, ParseError> {
        if matches!(self.peek(), Some(Token::Cmp(_))) {
            if let Some((Token::Cmp(op), _)) = self.next() {
                return Ok(op);
            }
        }
        Err(self.expected("comparison operator"))
    }
}

fn compare_op(op: &str, at: Span) -> Result<CompareOp, ParseError> {
    Ok(match op {
        "=" => CompareOp::Eq,
        "<>" => CompareOp::Ne,
        "<" => CompareOp::Lt,
        "<=" => CompareOp::Le,
        ">" => CompareOp::Gt,
        ">=" => CompareOp::Ge,
        other => {
            return Err(
                ParseError::new(format!("unknown comparison operator {other}"))
                    .at(at)
                    .with_token(other.to_owned()),
            )
        }
    })
}

/// Parses a query string into a logical plan.
///
/// `$1..$n` placeholders parse into [`Operand::Param`] slots of the plan's
/// filter predicates; bind them with [`LogicalPlan::bind_parameters`] (or
/// prepare the statement through a [`crate::Session`]) before execution.
pub fn parse_query(input: &str) -> Result<LogicalPlan, ParseError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
        end: input.len(),
        nesting: 0,
        set_operations: 0,
    };

    let plan = if p.accept_keyword("SAVE") {
        p.expect_keyword("SNAPSHOT")?;
        LogicalPlan::SaveSnapshot {
            path: expect_path_literal(&mut p)?,
        }
    } else if p.accept_keyword("LOAD") {
        p.expect_keyword("SNAPSHOT")?;
        LogicalPlan::LoadSnapshot {
            path: expect_path_literal(&mut p)?,
        }
    } else {
        parse_set_expr(&mut p)?
    };

    if let Some((token, span)) = p.tokens.get(p.pos) {
        return Err(
            ParseError::new(format!("unexpected trailing token '{}'", token.lexeme()))
                .at(*span)
                .with_token(token.lexeme()),
        );
    }
    Ok(plan)
}

/// `'<path>'` operand of the snapshot statements. A non-empty string
/// literal; anything else is a parse error.
fn expect_path_literal(p: &mut Parser) -> Result<String, ParseError> {
    if matches!(p.peek(), Some(Token::Str(_))) {
        if let Some((Token::Str(s), span)) = p.next() {
            if s.is_empty() {
                return Err(ParseError::new("snapshot path must not be empty").at(span));
            }
            return Ok(s);
        }
    }
    Err(p.expected("a quoted file path"))
}

/// `setexpr := term ((UNION | INTERSECT | EXCEPT) term)* suffixes` — the
/// set operations chain left-associatively at one precedence level.
/// Suffixes left unconsumed by the terms (a select without a TP join defers
/// them) apply to the whole expression here.
fn parse_set_expr(p: &mut Parser) -> Result<LogicalPlan, ParseError> {
    let mut plan = parse_term(p)?;
    loop {
        let kind = if p.accept_keyword("UNION") {
            TpSetOpKind::Union
        } else if p.accept_keyword("INTERSECT") {
            TpSetOpKind::Intersection
        } else if p.accept_keyword("EXCEPT") {
            TpSetOpKind::Difference
        } else {
            break;
        };
        p.set_operations += 1;
        if p.set_operations > MAX_SET_OPERATIONS {
            let keyword = p.previous();
            return Err(ParseError::new(format!(
                "a statement may contain at most {MAX_SET_OPERATIONS} set operations"
            ))
            .at(keyword)
            .with_token(kind.keyword()));
        }
        let right = parse_term(p)?;
        plan = plan.set_op(kind, right);
    }
    parse_suffixes(p, plan)
}

/// `[strategy | parallel]*` — the STRATEGY / PARALLEL suffixes, in any
/// order, applied to `plan`.
fn parse_suffixes(p: &mut Parser, mut plan: LogicalPlan) -> Result<LogicalPlan, ParseError> {
    loop {
        if p.accept_keyword("STRATEGY") {
            let keyword_span = p.previous();
            let name_span = p.here();
            let name = p.expect_ident()?;
            let strategy = parse_strategy_name(&name, name_span)?;
            plan = set_strategy(plan, strategy, keyword_span)?;
        } else if p.accept_keyword("PARALLEL") {
            let keyword_span = p.previous();
            expect_degree(p)?;
            accept_parallel(&plan, keyword_span)?;
        } else {
            return Ok(plan);
        }
    }
}

/// `term := '(' setexpr ')' | select`.
fn parse_term(p: &mut Parser) -> Result<LogicalPlan, ParseError> {
    if matches!(p.peek(), Some(Token::LParen)) {
        p.next();
        p.nesting += 1;
        if p.nesting > MAX_NESTING {
            return Err(ParseError::new(format!(
                "parentheses may nest at most {MAX_NESTING} levels deep"
            ))
            .at(p.previous())
            .with_token("("));
        }
        let plan = parse_set_expr(p)?;
        if !matches!(p.peek(), Some(Token::RParen)) {
            return Err(p.expected("')'"));
        }
        p.next();
        p.nesting -= 1;
        return Ok(plan);
    }
    parse_select(p)
}

/// Resolves a STRATEGY name.
fn parse_strategy_name(name: &str, at: Span) -> Result<JoinStrategy, ParseError> {
    if name.eq_ignore_ascii_case("NJ") {
        Ok(JoinStrategy::Nj)
    } else if name.eq_ignore_ascii_case("TA") {
        Ok(JoinStrategy::Ta)
    } else {
        Err(ParseError::new(format!("unknown strategy {name}"))
            .at(at)
            .with_token(name.to_owned()))
    }
}

/// Consumes the positive integer operand of a PARALLEL suffix.
fn expect_degree(p: &mut Parser) -> Result<(), ParseError> {
    match p.peek() {
        Some(&Token::Int(n)) if n >= 1 => {
            p.next();
            Ok(())
        }
        _ => Err(p.expected("a positive integer after PARALLEL")),
    }
}

/// Whether the plan contains a TP join (determines which level a
/// `STRATEGY`/`PARALLEL` suffix binds to).
fn contains_join(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. }
        | LogicalPlan::SaveSnapshot { .. }
        | LogicalPlan::LoadSnapshot { .. } => false,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            contains_join(input)
        }
        LogicalPlan::TpJoin { .. } => true,
        LogicalPlan::SetOp { left, right, .. } => contains_join(left) || contains_join(right),
    }
}

/// `select := SELECT cols FROM ident [join] [where] suffixes` — one branch
/// of a (possibly trivial) set expression. Suffixes are only consumed when
/// the select contains a TP join they can bind to; otherwise they are left
/// for the enclosing set expression.
fn parse_select(p: &mut Parser) -> Result<LogicalPlan, ParseError> {
    p.expect_keyword("SELECT")?;
    // projection list
    let mut projection: Option<Vec<String>> = None;
    if matches!(p.peek(), Some(Token::Star)) {
        p.next();
    } else {
        let mut cols = vec![p.expect_ident()?];
        while matches!(p.peek(), Some(Token::Comma)) {
            p.next();
            cols.push(p.expect_ident()?);
        }
        projection = Some(cols);
    }

    p.expect_keyword("FROM")?;
    let left_name = p.expect_ident()?;
    let mut plan = LogicalPlan::scan(&left_name);

    // optional TP join
    if p.accept_keyword("TP") {
        let kind = if p.accept_keyword("INNER") {
            TpJoinKind::Inner
        } else if p.accept_keyword("LEFT") {
            let _ = p.accept_keyword("OUTER");
            TpJoinKind::LeftOuter
        } else if p.accept_keyword("RIGHT") {
            let _ = p.accept_keyword("OUTER");
            TpJoinKind::RightOuter
        } else if p.accept_keyword("FULL") {
            let _ = p.accept_keyword("OUTER");
            TpJoinKind::FullOuter
        } else if p.accept_keyword("ANTI") {
            TpJoinKind::Anti
        } else {
            return Err(p.expected("INNER, LEFT, RIGHT, FULL or ANTI after TP"));
        };
        p.expect_keyword("JOIN")?;
        let right_name = p.expect_ident()?;
        p.expect_keyword("ON")?;

        let mut theta = ThetaCondition::always();
        loop {
            // qualified column: rel.col
            let qualifier_span = p.here();
            let q1 = p.expect_ident()?;
            if !matches!(p.peek(), Some(Token::Dot)) {
                return Err(p.expected("'.' (join condition columns must be qualified as rel.col)"));
            }
            p.next();
            let c1 = p.expect_ident()?;
            let op_span = p.here();
            let op = compare_op(&p.expect_cmp()?, op_span)?;
            let q2 = p.expect_ident()?;
            if !matches!(p.peek(), Some(Token::Dot)) {
                return Err(p.expected("'.' (join condition columns must be qualified as rel.col)"));
            }
            p.next();
            let c2 = p.expect_ident()?;

            // orient the comparison as left-relation column vs right-relation column
            let (lc, op, rc) = if q1 == left_name && q2 == right_name {
                (c1, op, c2)
            } else if q1 == right_name && q2 == left_name {
                (c2, op.flip(), c1)
            } else {
                return Err(ParseError::new(format!(
                    "join condition must reference {left_name} and {right_name}"
                ))
                .at(Span::new(qualifier_span.start, p.previous().end)));
            };
            theta = theta.and_compare(&lc, op, &rc);

            if !p.accept_keyword("AND") {
                break;
            }
        }

        // optional strategy suffix can appear after WHERE too; look ahead later
        plan = plan.tp_join(
            LogicalPlan::scan(&right_name),
            theta,
            kind,
            JoinStrategy::Nj,
        );
    }

    // optional WHERE
    if p.accept_keyword("WHERE") {
        let mut predicates = Vec::new();
        loop {
            let column = p.expect_ident()?;
            let op_span = p.here();
            let op = compare_op(&p.expect_cmp()?, op_span)?;
            let operand = match p.peek() {
                Some(&Token::Int(n)) => Operand::Literal(Value::Int(n)),
                Some(&Token::Float(n)) => Operand::Literal(Value::Float(n)),
                Some(Token::Str(s)) => Operand::Literal(Value::str(s)),
                Some(Token::Ident(w)) if matches!(&*w.to_ascii_lowercase(), "true" | "false") => {
                    Operand::Literal(Value::Bool(w.eq_ignore_ascii_case("true")))
                }
                Some(&Token::Param(index)) => Operand::Param(index),
                _ => return Err(p.expected("literal or $n placeholder in WHERE clause")),
            };
            p.next();
            predicates.push(LiteralPredicate {
                column,
                op,
                operand,
            });
            if !p.accept_keyword("AND") {
                break;
            }
        }
        plan = plan.filter(predicates);
    }

    // Optional STRATEGY / PARALLEL suffixes. A select without a TP join
    // leaves them unconsumed: they then bind to the enclosing set
    // expression (or fail there, for a plain scan query).
    if contains_join(&plan) {
        plan = parse_suffixes(p, plan)?;
    }

    if let Some(cols) = projection {
        plan = plan.project(cols);
    }
    Ok(plan)
}

/// Rewrites the join strategy of the (single) TP join in the plan.
fn set_strategy(
    plan: LogicalPlan,
    strategy: JoinStrategy,
    at: Span,
) -> Result<LogicalPlan, ParseError> {
    Ok(match plan {
        LogicalPlan::TpJoin {
            left,
            right,
            theta,
            kind,
            ..
        } => LogicalPlan::TpJoin {
            left,
            right,
            theta,
            kind,
            strategy,
        },
        LogicalPlan::Filter { input, predicates } => LogicalPlan::Filter {
            input: Box::new(set_strategy(*input, strategy, at)?),
            predicates,
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(set_strategy(*input, strategy, at)?),
            columns,
        },
        // The set operations are defined on the NJ window machinery; the
        // TA baseline has no set-operation counterpart to select.
        LogicalPlan::SetOp { .. } => {
            return Err(ParseError::new(
                "STRATEGY cannot apply to a set operation (UNION/INTERSECT/EXCEPT always \
                 run on the NJ window machinery); put the suffix inside a joining SELECT",
            )
            .at(at)
            .with_token("STRATEGY"))
        }
        LogicalPlan::Scan { .. }
        | LogicalPlan::SaveSnapshot { .. }
        | LogicalPlan::LoadSnapshot { .. } => {
            return Err(ParseError::new("STRATEGY requires a TP join in the query")
                .at(at)
                .with_token("STRATEGY"))
        }
    })
}

/// Accepts a `PARALLEL n` suffix where a TP join or set operation can take
/// it. The degree itself is discarded: statements run on one thread.
fn accept_parallel(plan: &LogicalPlan, at: Span) -> Result<(), ParseError> {
    match plan {
        LogicalPlan::TpJoin { .. } | LogicalPlan::SetOp { .. } => Ok(()),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            accept_parallel(input, at)
        }
        LogicalPlan::Scan { .. }
        | LogicalPlan::SaveSnapshot { .. }
        | LogicalPlan::LoadSnapshot { .. } => Err(ParseError::new(
            "PARALLEL requires a TP join or set operation in the query",
        )
        .at(at)
        .with_token("PARALLEL")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        let plan = parse_query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc").unwrap();
        match plan {
            LogicalPlan::TpJoin {
                kind,
                strategy,
                theta,
                ..
            } => {
                assert_eq!(kind, TpJoinKind::LeftOuter);
                assert_eq!(strategy, JoinStrategy::Nj);
                assert_eq!(theta.to_string(), "r.Loc = s.Loc");
            }
            other => panic!("expected TpJoin, got {other:?}"),
        }
    }

    #[test]
    fn parses_all_join_kinds() {
        for (kw, kind) in [
            ("INNER", TpJoinKind::Inner),
            ("LEFT", TpJoinKind::LeftOuter),
            ("LEFT OUTER", TpJoinKind::LeftOuter),
            ("RIGHT OUTER", TpJoinKind::RightOuter),
            ("FULL OUTER", TpJoinKind::FullOuter),
            ("ANTI", TpJoinKind::Anti),
        ] {
            let q = format!("SELECT * FROM a TP {kw} JOIN b ON a.Loc = b.Loc");
            match parse_query(&q).unwrap() {
                LogicalPlan::TpJoin { kind: k, .. } => assert_eq!(k, kind, "{kw}"),
                other => panic!("expected TpJoin, got {other:?}"),
            }
        }
    }

    #[test]
    fn parses_strategy_suffix() {
        let plan =
            parse_query("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc STRATEGY TA").unwrap();
        match plan {
            LogicalPlan::TpJoin { strategy, .. } => assert_eq!(strategy, JoinStrategy::Ta),
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn parses_parallel_suffix_in_either_order() {
        // The suffix parses next to STRATEGY in either order and leaves no
        // trace in the plan.
        let bare =
            parse_query("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc STRATEGY TA").unwrap();
        for q in [
            "SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc STRATEGY TA PARALLEL 4",
            "SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc PARALLEL 4 STRATEGY TA",
        ] {
            assert_eq!(parse_query(q).unwrap(), bare, "{q}");
        }
    }

    #[test]
    fn parallel_requires_a_join_and_a_positive_integer() {
        for no_operator in [
            "SELECT * FROM a PARALLEL 4",
            "SELECT * FROM a WHERE Loc = 'ZAK' PARALLEL 4",
            "(SELECT * FROM a) PARALLEL 2",
        ] {
            let err = parse_query(no_operator).unwrap_err();
            assert_eq!(err.token.as_deref(), Some("PARALLEL"), "{no_operator}");
        }
        for bad in [
            "PARALLEL 0",
            "PARALLEL 2.5",
            "PARALLEL 2.0",
            "PARALLEL x",
            "PARALLEL",
        ] {
            for q in [
                format!("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc {bad}"),
                format!("SELECT * FROM a UNION SELECT * FROM b {bad}"),
            ] {
                assert!(parse_query(&q).is_err(), "{q}");
            }
        }
    }

    #[test]
    fn parses_projection_and_where() {
        let plan = parse_query(
            "SELECT Name, Hotel FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = 'Ann' AND Hotel <> 'hotel2' STRATEGY NJ",
        )
        .unwrap();
        // plan shape: Project(Filter(TpJoin))
        match plan {
            LogicalPlan::Project { columns, input } => {
                assert_eq!(columns, vec!["Name".to_owned(), "Hotel".to_owned()]);
                match *input {
                    LogicalPlan::Filter { predicates, .. } => assert_eq!(predicates.len(), 2),
                    other => panic!("expected Filter, got {other:?}"),
                }
            }
            other => panic!("expected Project, got {other:?}"),
        }
    }

    #[test]
    fn parses_reversed_qualifiers() {
        let plan = parse_query("SELECT * FROM a TP LEFT JOIN b ON b.Loc = a.Loc").unwrap();
        match plan {
            LogicalPlan::TpJoin { theta, .. } => assert_eq!(theta.to_string(), "r.Loc = s.Loc"),
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn parses_simple_scan_with_where() {
        let plan = parse_query("SELECT * FROM a WHERE Loc = 'ZAK'").unwrap();
        match plan {
            LogicalPlan::Filter { predicates, input } => {
                assert_eq!(predicates.len(), 1);
                assert_eq!(*input, LogicalPlan::scan("a"));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn numeric_literals_are_typed() {
        let plan = parse_query(
            "SELECT * FROM a WHERE Key = 5 AND P < 0.5 AND K = 9007199254740993 \
             AND P = 1.0 AND Q = -0.0 AND M = -9223372036854775808",
        )
        .unwrap();
        let LogicalPlan::Filter { predicates, .. } = plan else {
            panic!("unexpected plan {plan:?}")
        };
        // `Value`'s `==` is numeric (`Int(1) == Float(1.0)`): match variants.
        let operand = |i: usize| match &predicates[i].operand {
            Operand::Literal(v) => v.clone(),
            Operand::Param(_) => panic!("literal expected"),
        };
        assert!(matches!(operand(0), Value::Int(5)));
        assert!(matches!(operand(1), Value::Float(f) if f.to_bits() == 0.5f64.to_bits()));
        assert!(matches!(operand(2), Value::Int(9_007_199_254_740_993)));
        assert!(matches!(operand(3), Value::Float(f) if f.to_bits() == 1.0f64.to_bits()));
        assert!(matches!(operand(4), Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(operand(5), Value::Int(i64::MIN)));

        let text = "SELECT * FROM a WHERE K = 9223372036854775808";
        let err = parse_query(text).unwrap_err();
        assert_eq!(err.span, Span::new(26, text.len()));
        assert_eq!(err.token.as_deref(), Some("9223372036854775808"));
        assert!(err.message.contains("out of range"), "{}", err.message);
    }

    #[test]
    fn exponent_literals_are_floats() {
        let plan =
            parse_query("SELECT * FROM a WHERE P = 1e16 AND P = 1.5e-7 AND P = -2E+3 AND P = 2e0")
                .unwrap();
        let LogicalPlan::Filter { predicates, .. } = plan else {
            panic!("unexpected plan {plan:?}")
        };
        for (predicate, want) in predicates.iter().zip([1e16, 1.5e-7, -2e3, 2.0_f64]) {
            assert!(
                matches!(predicate.operand, Operand::Literal(Value::Float(f)) if f.to_bits() == want.to_bits()),
                "{predicate}"
            );
        }
        // An `e` with no digits after it is not an exponent.
        for text in [
            "SELECT * FROM a WHERE P = 1e",
            "SELECT * FROM a WHERE P = 1e+",
            "SELECT * FROM a WHERE P = inf",
            "SELECT * FROM a WHERE P = NaN",
        ] {
            assert!(parse_query(text).is_err(), "{text}");
        }
    }

    #[test]
    fn a_doubled_quote_is_a_quote_in_a_string_literal() {
        let plan = parse_query("SELECT * FROM a WHERE Name = 'O''Brien' AND Loc = ''''").unwrap();
        let LogicalPlan::Filter { predicates, .. } = plan else {
            panic!("unexpected plan {plan:?}")
        };
        assert_eq!(
            predicates[0].operand,
            Operand::Literal(Value::str("O'Brien"))
        );
        assert_eq!(predicates[1].operand, Operand::Literal(Value::str("'")));
        assert_eq!(predicates[0].to_string(), "Name = 'O''Brien'");
    }

    #[test]
    fn parses_parameter_placeholders() {
        let plan = parse_query("SELECT * FROM a WHERE Loc = $1 AND Key >= $2").unwrap();
        match plan {
            LogicalPlan::Filter { predicates, .. } => {
                assert_eq!(predicates[0].operand, Operand::Param(1));
                assert_eq!(predicates[1].operand, Operand::Param(2));
            }
            other => panic!("unexpected plan {other:?}"),
        }
        assert_eq!(
            parse_query("SELECT * FROM a WHERE Loc = $1 AND Key >= $2")
                .unwrap()
                .parameter_count(),
            2
        );
    }

    #[test]
    fn bad_placeholders_are_rejected_with_spans() {
        let err = parse_query("SELECT * FROM a WHERE Loc = $0").unwrap_err();
        assert!(err.message.contains("1-based"), "{err}");
        assert_eq!(err.token.as_deref(), Some("$0"));
        let err = parse_query("SELECT * FROM a WHERE Loc = $").unwrap_err();
        assert!(err.message.contains("$1"), "{err}");
        // placeholders are not allowed outside the WHERE clause
        assert!(parse_query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = $1").is_err());
    }

    #[test]
    fn errors_carry_byte_spans_and_offending_tokens() {
        // 'FORM' starts at byte 9 of the input.
        let err = parse_query("SELECT * FORM a").unwrap_err();
        assert_eq!((err.span.start, err.span.end), (9, 13));
        assert_eq!(err.token.as_deref(), Some("FORM"));
        assert!(err.message.contains("expected FROM"), "{err}");

        // end-of-input errors point one past the last byte and carry no token
        let input = "SELECT * FROM a WHERE Loc = ";
        let err = parse_query(input).unwrap_err();
        assert_eq!(err.span, Span::empty(input.len()));
        assert!(err.token.is_none());
        assert!(err.message.contains("end of input"), "{err}");

        // trailing garbage names the first trailing token
        let err = parse_query("SELECT * FROM a extra tokens").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("extra"));
        assert_eq!(err.span.start, 16);
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("FROM a").is_err());
        assert!(parse_query("SELECT * FROM").is_err());
        assert!(parse_query("SELECT * FROM a TP SIDEWAYS JOIN b ON a.x = b.x").is_err());
        assert!(parse_query("SELECT * FROM a TP LEFT JOIN b ON Loc = Loc").is_err());
        assert!(parse_query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = c.Loc").is_err());
        assert!(parse_query("SELECT * FROM a WHERE Loc = 'unterminated").is_err());
        assert!(parse_query("SELECT * FROM a STRATEGY TA").is_err());
        assert!(
            parse_query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc STRATEGY PG").is_err()
        );
        assert!(parse_query("SELECT * FROM a extra tokens here").is_err());
    }

    #[test]
    fn parses_set_operations_left_associatively() {
        let plan =
            parse_query("SELECT * FROM a UNION SELECT * FROM b EXCEPT SELECT * FROM c").unwrap();
        match plan {
            LogicalPlan::SetOp {
                kind, left, right, ..
            } => {
                assert_eq!(kind, TpSetOpKind::Difference);
                assert_eq!(*right, LogicalPlan::scan("c"));
                match *left {
                    LogicalPlan::SetOp { kind, .. } => assert_eq!(kind, TpSetOpKind::Union),
                    other => panic!("expected nested SetOp, got {other:?}"),
                }
            }
            other => panic!("expected SetOp, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_set_operation_grouping() {
        let plan =
            parse_query("SELECT * FROM a UNION (SELECT * FROM b EXCEPT SELECT * FROM c)").unwrap();
        match plan {
            LogicalPlan::SetOp {
                kind, left, right, ..
            } => {
                assert_eq!(kind, TpSetOpKind::Union);
                assert_eq!(*left, LogicalPlan::scan("a"));
                match *right {
                    LogicalPlan::SetOp { kind, .. } => {
                        assert_eq!(kind, TpSetOpKind::Difference);
                    }
                    other => panic!("expected nested SetOp, got {other:?}"),
                }
            }
            other => panic!("expected SetOp, got {other:?}"),
        }
        // a fully parenthesized plain select is still a plain select
        assert_eq!(
            parse_query("(SELECT * FROM a)").unwrap(),
            LogicalPlan::scan("a")
        );
    }

    #[test]
    fn set_operations_compose_with_where_parameters_and_projection() {
        let plan =
            parse_query("SELECT k FROM a WHERE k >= $1 INTERSECT SELECT k FROM b WHERE k >= $1")
                .unwrap();
        assert_eq!(plan.parameter_count(), 1);
        match plan {
            LogicalPlan::SetOp {
                kind, left, right, ..
            } => {
                assert_eq!(kind, TpSetOpKind::Intersection);
                assert!(matches!(*left, LogicalPlan::Project { .. }));
                assert!(matches!(*right, LogicalPlan::Project { .. }));
            }
            other => panic!("expected SetOp, got {other:?}"),
        }
    }

    #[test]
    fn trailing_parallel_binds_to_the_set_operation() {
        // A select without a join leaves the suffix to the set operation,
        // a joining branch consumes its own; either way the plan is the
        // bare statement's.
        for q in [
            "SELECT * FROM a UNION SELECT * FROM b",
            "SELECT * FROM a UNION SELECT * FROM b TP ANTI JOIN c ON b.k = c.k",
        ] {
            let pinned = parse_query(&format!("{q} PARALLEL 2")).unwrap();
            assert_eq!(pinned, parse_query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn strategy_on_a_set_operation_is_rejected() {
        let err = parse_query("SELECT * FROM a UNION SELECT * FROM b STRATEGY TA").unwrap_err();
        assert!(err.message.contains("set operation"), "{err}");
        assert_eq!(err.token.as_deref(), Some("STRATEGY"));
    }

    #[test]
    fn set_operation_error_cases() {
        // unterminated parenthesis
        assert!(parse_query("(SELECT * FROM a UNION SELECT * FROM b").is_err());
        // missing right-hand term
        assert!(parse_query("SELECT * FROM a UNION").is_err());
        // a set op keyword alone is not a term
        assert!(parse_query("UNION SELECT * FROM a").is_err());
        // trailing garbage after a parenthesized expression
        assert!(parse_query("(SELECT * FROM a) extra").is_err());
    }

    #[test]
    fn unexpected_characters_are_reported() {
        let err = parse_query("SELECT * FROM a WHERE Loc = #").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
        assert_eq!(err.span.start, 28);
    }

    /// Runs `f` on a thread with the stack of a server connection thread
    /// (the 2 MiB default), so that a statement that would overflow a
    /// served connection overflows here too.
    fn on_a_connection_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test sizes its thread's stack"
        )]
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(f);
        thread.unwrap().join().unwrap()
    }

    /// `depth` parentheses around `SELECT * FROM a`.
    fn nested(depth: usize) -> String {
        format!("{}SELECT * FROM a{}", "(".repeat(depth), ")".repeat(depth))
    }

    /// `SELECT * FROM a`, then `set_operations` more terms under `UNION`.
    fn union_chain(set_operations: usize) -> String {
        let mut text = "SELECT * FROM a".to_owned();
        for _ in 0..set_operations {
            text.push_str(" UNION SELECT * FROM a");
        }
        text
    }

    #[test]
    fn statements_beyond_the_nesting_bounds_are_parse_errors() {
        let errors = on_a_connection_stack(|| {
            [nested(100_000), union_chain(100_000)].map(|text| parse_query(&text).unwrap_err())
        });
        let [parentheses, chain] = errors;
        assert!(parentheses.message.contains("nest"), "{parentheses}");
        assert_eq!(parentheses.token.as_deref(), Some("("));
        assert_eq!(parentheses.span.start, MAX_NESTING);
        assert!(chain.message.contains("set operations"), "{chain}");
        assert_eq!(chain.token.as_deref(), Some("UNION"));
        // One past each bound is refused, the bound itself is not.
        assert!(parse_query(&nested(MAX_NESTING + 1)).is_err());
        assert!(parse_query(&nested(MAX_NESTING)).is_ok());
        assert!(parse_query(&union_chain(MAX_SET_OPERATIONS + 1)).is_err());
        assert!(parse_query(&union_chain(MAX_SET_OPERATIONS)).is_ok());
    }

    #[test]
    fn the_deepest_accepted_statement_runs_on_a_connection_stack() {
        // Both bounds at once: the longest set-operation chain, inside the
        // deepest nesting. It parses, plans, explains, executes and drops;
        // one set operation more is refused.
        let nest = |chain: String| {
            let depth = MAX_NESTING;
            format!("{}{chain}{}", "(".repeat(depth), ")".repeat(depth))
        };
        let deepest = nest(union_chain(MAX_SET_OPERATIONS));
        let one_more = nest(union_chain(MAX_SET_OPERATIONS + 1));
        let (rows, explained, refused) = on_a_connection_stack(move || {
            let mut catalog = tpdb_storage::Catalog::new();
            catalog.register(tpdb_datagen::booking_example().0).unwrap();
            let session = crate::Session::new(catalog);
            let explained = session.explain(&deepest).unwrap();
            let rows = session.execute(&deepest).unwrap().len();
            (rows, explained, session.execute(&one_more).is_err())
        });
        assert_eq!(rows, 2);
        assert_eq!(
            explained.matches("SetOp UNION").count(),
            2 * MAX_SET_OPERATIONS
        );
        assert!(refused);
    }
}
