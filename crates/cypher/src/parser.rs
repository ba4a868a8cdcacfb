//! Recursive-descent parser for the Cypher subset.
//!
//! Grammar (lowercase = nonterminal):
//!
//! ```text
//! query      := clause+ return
//! clause     := [OPTIONAL] MATCH pattern (',' pattern)* [WHERE expr]
//!             | WITH [DISTINCT] projItems [WHERE expr]
//!             | UNWIND expr AS ident
//! return     := RETURN [DISTINCT] projItems [ORDER BY orderItems]
//!               [SKIP int] [LIMIT int]
//! pattern    := nodePat (relPat nodePat)*
//! nodePat    := '(' [ident] (':' ident)* [propMap] ')'
//! relPat     := '-' '[' [ident] [':' ident ('|' ident)*] [propMap] ']' ('->'|'-')
//!             | '<-' '[' ... ']' '-'
//! expr       := orExpr  (standard precedence ladder, see functions)
//! ```

use grm_pgraph::Value;

use crate::ast::*;
use crate::error::{CypherError, Result, Span};
use crate::lexer::{lex, Tok, Token};

/// Deepest expression nesting the parser accepts: parentheses, lists,
/// function arguments and `NOT`/sign/power chains all count. Past it
/// the parser returns a positioned syntax error instead of recursing
/// until the stack overflows. An unoptimized build spends about 16 KB
/// of stack per level, so 64 levels fit a 2 MB thread.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Parses a full query from source text.
pub fn parse(src: &str) -> Result<Query> {
    let tokens = lex(src)?;
    let mut p = Parser { src, tokens, pos: 0, depth: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a standalone expression (used in tests and by the rule
/// translator).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser { src, tokens, pos: 0, depth: 0 };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    /// Current expression nesting, bounded by [`MAX_EXPR_DEPTH`].
    depth: usize,
}

/// Keyword tokens that double as names in label/type/key positions —
/// `MATCH (m:Match)` is legal Cypher even though `Match` lexes as a
/// keyword.
fn is_word(tok: &Tok) -> bool {
    !matches!(
        tok,
        Tok::Ident(_)
            | Tok::IntLit(_)
            | Tok::FloatLit(_)
            | Tok::StrLit(_)
            | Tok::LParen
            | Tok::RParen
            | Tok::LBracket
            | Tok::RBracket
            | Tok::LBrace
            | Tok::RBrace
            | Tok::Colon
            | Tok::Comma
            | Tok::Dot
            | Tok::Pipe
            | Tok::Plus
            | Tok::Minus
            | Tok::Star
            | Tok::Slash
            | Tok::Percent
            | Tok::Caret
            | Tok::Eq
            | Tok::Neq
            | Tok::Lt
            | Tok::Le
            | Tok::Gt
            | Tok::Ge
            | Tok::RegexEq
            | Tok::Arrow
            | Tok::LArrow
            | Tok::Eof
    )
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(CypherError::parse(
                format!("expected {what}, found {:?}", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(CypherError::parse(
                format!("unexpected trailing input {:?}", self.peek()),
                self.span(),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        // Names in label/type/key/alias positions may collide with
        // keywords; recover the original spelling from the span.
        if is_word(self.peek()) && !matches!(self.peek(), Tok::Ident(_)) {
            let span = self.span();
            self.bump();
            return Ok(self.src[span.start..span.end].to_owned());
        }
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => {
                Err(CypherError::parse(format!("expected {what}, found {other:?}"), self.span()))
            }
        }
    }

    // -- query structure ----------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let mut clauses = Vec::new();
        loop {
            match self.peek() {
                Tok::Match | Tok::Optional => clauses.push(self.match_clause()?),
                Tok::With => clauses.push(self.with_clause()?),
                Tok::Unwind => clauses.push(self.unwind_clause()?),
                Tok::Return => break,
                other => {
                    return Err(CypherError::parse(
                        format!("expected clause keyword, found {other:?}"),
                        self.span(),
                    ))
                }
            }
        }
        if clauses.is_empty() && !matches!(self.peek(), Tok::Return) {
            return Err(CypherError::parse("query must start with MATCH/WITH/RETURN", self.span()));
        }
        let ret = self.return_clause()?;
        Ok(Query { clauses, ret })
    }

    fn match_clause(&mut self) -> Result<Clause> {
        let optional = self.eat(&Tok::Optional);
        self.expect(&Tok::Match, "MATCH")?;
        let mut patterns = vec![self.path_pattern()?];
        while self.eat(&Tok::Comma) {
            patterns.push(self.path_pattern()?);
        }
        let where_clause = if self.eat(&Tok::Where) { Some(self.expr()?) } else { None };
        Ok(Clause::Match { optional, patterns, where_clause })
    }

    fn with_clause(&mut self) -> Result<Clause> {
        self.expect(&Tok::With, "WITH")?;
        let distinct = self.eat(&Tok::Distinct);
        let items = self.proj_items()?;
        let where_clause = if self.eat(&Tok::Where) { Some(self.expr()?) } else { None };
        Ok(Clause::With { distinct, items, where_clause })
    }

    fn unwind_clause(&mut self) -> Result<Clause> {
        self.expect(&Tok::Unwind, "UNWIND")?;
        let expr = self.expr()?;
        self.expect(&Tok::As, "AS")?;
        let var = self.ident("variable name")?;
        Ok(Clause::Unwind { expr, var })
    }

    fn return_clause(&mut self) -> Result<Return> {
        self.expect(&Tok::Return, "RETURN")?;
        let distinct = self.eat(&Tok::Distinct);
        let items = self.proj_items()?;
        let mut order_by = Vec::new();
        if self.eat(&Tok::Order) {
            self.expect(&Tok::By, "BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat(&Tok::Desc) {
                    true
                } else {
                    self.eat(&Tok::Asc);
                    false
                };
                order_by.push(OrderItem { expr, descending });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let skip = if self.eat(&Tok::Skip) { Some(self.uint()?) } else { None };
        let limit = if self.eat(&Tok::Limit) { Some(self.uint()?) } else { None };
        Ok(Return { distinct, items, order_by, skip, limit })
    }

    fn uint(&mut self) -> Result<u64> {
        match self.bump() {
            Tok::IntLit(i) if i >= 0 => Ok(i as u64),
            other => Err(CypherError::parse(
                format!("expected non-negative integer, found {other:?}"),
                self.span(),
            )),
        }
    }

    fn proj_items(&mut self) -> Result<Vec<ProjItem>> {
        let mut items = vec![self.proj_item()?];
        while self.eat(&Tok::Comma) {
            items.push(self.proj_item()?);
        }
        Ok(items)
    }

    fn proj_item(&mut self) -> Result<ProjItem> {
        let expr = self.expr()?;
        let alias = if self.eat(&Tok::As) { Some(self.ident("alias")?) } else { None };
        Ok(ProjItem { expr, alias })
    }

    // -- patterns -----------------------------------------------------------

    fn path_pattern(&mut self) -> Result<PathPattern> {
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        while matches!(self.peek(), Tok::Minus | Tok::LArrow) {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            steps.push((rel, node));
        }
        Ok(PathPattern { start, steps })
    }

    fn node_pattern(&mut self) -> Result<NodePattern> {
        self.expect(&Tok::LParen, "'('")?;
        let mut pat = NodePattern::default();
        if let Tok::Ident(_) = self.peek() {
            if let Tok::Ident(name) = self.bump() {
                pat.var = Some(name);
            }
        }
        while self.eat(&Tok::Colon) {
            pat.labels.push(self.ident("node label")?);
        }
        if matches!(self.peek(), Tok::LBrace) {
            pat.props = self.prop_map()?;
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(pat)
    }

    fn rel_pattern(&mut self) -> Result<RelPattern> {
        // `<-[...]-`  or  `-[...]->`  or  `-[...]-`
        let incoming = self.eat(&Tok::LArrow);
        if !incoming {
            self.expect(&Tok::Minus, "'-'")?;
        }
        let mut var = None;
        let mut types = Vec::new();
        let mut props = Vec::new();
        let mut length = None;
        if self.eat(&Tok::LBracket) {
            if let Tok::Ident(_) = self.peek() {
                if let Tok::Ident(name) = self.bump() {
                    var = Some(name);
                }
            }
            if self.eat(&Tok::Colon) {
                types.push(self.ident("relationship type")?);
                while self.eat(&Tok::Pipe) {
                    // `|:TYPE` and `|TYPE` are both accepted.
                    self.eat(&Tok::Colon);
                    types.push(self.ident("relationship type")?);
                }
            }
            if self.eat(&Tok::Star) {
                // Variable-length: `*`, `*n`, `*n..`, `*n..m`, `*..m`.
                let min = match self.peek() {
                    Tok::IntLit(_) => Some(self.uint()? as u32),
                    _ => None,
                };
                let has_range = if matches!(self.peek(), Tok::Dot) {
                    self.expect(&Tok::Dot, "'.'")?;
                    self.expect(&Tok::Dot, "'..'")?;
                    true
                } else {
                    false
                };
                let max = if has_range {
                    match self.peek() {
                        Tok::IntLit(_) => Some(self.uint()? as u32),
                        _ => None,
                    }
                } else {
                    // `*n` means exactly n; bare `*` means 1..∞.
                    min.or(None)
                };
                length = Some(match (min, has_range) {
                    (None, false) => (1, None),
                    (Some(n), false) => (n, Some(n)),
                    (m, true) => (m.unwrap_or(1), max),
                });
            }
            if matches!(self.peek(), Tok::LBrace) {
                props = self.prop_map()?;
            }
            self.expect(&Tok::RBracket, "']'")?;
        }
        let direction = if incoming {
            self.expect(&Tok::Minus, "'-'")?;
            Direction::In
        } else if self.eat(&Tok::Arrow) {
            Direction::Out
        } else {
            self.expect(&Tok::Minus, "'-' or '->'")?;
            Direction::Undirected
        };
        Ok(RelPattern { var, types, props, direction, length })
    }

    fn prop_map(&mut self) -> Result<Vec<(String, Expr)>> {
        self.expect(&Tok::LBrace, "'{'")?;
        let mut props = Vec::new();
        if !matches!(self.peek(), Tok::RBrace) {
            loop {
                let key = self.ident("property key")?;
                self.expect(&Tok::Colon, "':'")?;
                let value = self.expr()?;
                props.push((key, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrace, "'}'")?;
        Ok(props)
    }

    // -- expressions: precedence ladder --------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    /// Runs one recursive step of the expression grammar, one level
    /// deeper; every cycle of the grammar passes through here.
    fn nested(&mut self, step: impl FnOnce(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(CypherError::parse(
                format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"),
                self.span(),
            ));
        }
        self.depth += 1;
        let e = step(self);
        self.depth -= 1;
        e
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.xor_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.xor_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn xor_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Xor) {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Xor, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Not) {
            let inner = self.nested(Self::not_expr)?;
            Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        // Postfix predicates: IS [NOT] NULL, IN.
        if self.eat(&Tok::Is) {
            let negated = self.eat(&Tok::Not);
            self.expect(&Tok::Null, "NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        if self.eat(&Tok::In) {
            let list = self.additive()?;
            return Ok(Expr::In { expr: Box::new(lhs), list: Box::new(list) });
        }
        if self.eat(&Tok::Starts) {
            self.expect(&Tok::With, "WITH after STARTS")?;
            let rhs = self.additive()?;
            return Ok(Expr::binary(BinOp::StartsWith, lhs, rhs));
        }
        if self.eat(&Tok::Ends) {
            self.expect(&Tok::With, "WITH after ENDS")?;
            let rhs = self.additive()?;
            return Ok(Expr::binary(BinOp::EndsWith, lhs, rhs));
        }
        if self.eat(&Tok::Contains) {
            let rhs = self.additive()?;
            return Ok(Expr::binary(BinOp::Contains, lhs, rhs));
        }
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Neq => BinOp::Neq,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::RegexEq => BinOp::Regex,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.power()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.power()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<Expr> {
        let lhs = self.unary()?;
        if self.eat(&Tok::Caret) {
            // Right-associative.
            let rhs = self.nested(Self::power)?;
            return Ok(Expr::binary(BinOp::Pow, lhs, rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Minus) {
            let inner = self.nested(Self::unary)?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat(&Tok::Plus) {
            return self.nested(Self::unary);
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.atom()?;
        while self.eat(&Tok::Dot) {
            let key = self.ident("property key")?;
            e = Expr::Prop { base: Box::new(e), key };
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::IntLit(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Tok::FloatLit(x) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(x)))
            }
            Tok::StrLit(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Tok::Null => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if !matches!(self.peek(), Tok::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "']'")?;
                Ok(Expr::List(items))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Exists => {
                // `EXISTS(n.prop)` keyword form.
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let inner = self.expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(Expr::ExistsProp(Box::new(inner)))
            }
            Tok::Ident(name) => {
                // Function call or plain variable.
                if matches!(self.peek2(), Tok::LParen) {
                    self.bump();
                    self.bump(); // '('
                    let lname = name.to_ascii_lowercase();
                    if self.eat(&Tok::Star) {
                        self.expect(&Tok::RParen, "')'")?;
                        if lname != "count" {
                            return Err(CypherError::parse(
                                format!("'*' argument only valid in COUNT, not {name}"),
                                self.span(),
                            ));
                        }
                        return Ok(Expr::FnCall {
                            name: lname,
                            distinct: false,
                            star: true,
                            args: vec![],
                        });
                    }
                    let distinct = self.eat(&Tok::Distinct);
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "')'")?;
                    Ok(Expr::FnCall { name: lname, distinct, star: false, args })
                } else {
                    self.bump();
                    Ok(Expr::Var(name))
                }
            }
            other => Err(CypherError::parse(
                format!("expected expression, found {other:?}"),
                self.span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_a_positioned_syntax_error() {
        let n = 10_000;
        let forms = [
            ("parentheses", "(".repeat(n) + "1" + &")".repeat(n)),
            ("lists", "[".repeat(n) + "1" + &"]".repeat(n)),
            ("NOT chain", "NOT ".repeat(2 * n) + "true"),
            ("sign chain", "- ".repeat(2 * n) + "1"),
            ("power chain", "2".to_owned() + &" ^ 2".repeat(2 * n)),
        ];
        for (form, expr) in forms {
            let src = format!("RETURN {expr} AS x");
            match parse(&src) {
                Err(CypherError::Parse { message, span }) => {
                    assert!(message.contains("nested deeper"), "{form}: {message}");
                    assert!(span.start > 0 && span.end <= src.len(), "{form}: {span:?}");
                }
                other => panic!("{form}: expected a parse error, got {other:?}"),
            }
        }
        // Just inside the limit still parses, with room to spare for
        // the `RETURN` level.
        let depth = MAX_EXPR_DEPTH - 1;
        let src = format!("RETURN {}1{} AS x", "(".repeat(depth - 1), ")".repeat(depth - 1));
        assert!(parse(&src).is_ok());
        let src = format!("RETURN {}1{} AS x", "(".repeat(depth + 1), ")".repeat(depth + 1));
        assert!(parse(&src).is_err());
    }

    #[test]
    fn parses_the_papers_tournament_query() {
        let q = parse(
            "MATCH (t:Tournament)-[:IN_TOURNAMENT]->(m:Match)\n\
             WITH t.id AS tournament_id, m.id AS match_id, COUNT(*) AS count\n\
             WHERE count = 1\n\
             RETURN COUNT(*) AS support;",
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 2);
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                let p = &patterns[0];
                assert_eq!(p.start.labels, vec!["Tournament"]);
                assert_eq!(p.steps[0].0.direction, Direction::Out);
                assert_eq!(p.steps[0].0.types, vec!["IN_TOURNAMENT"]);
                assert_eq!(p.steps[0].1.labels, vec!["Match"]);
            }
            other => panic!("expected MATCH, got {other:?}"),
        }
        assert_eq!(q.ret.items[0].alias.as_deref(), Some("support"));
    }

    #[test]
    fn parses_incoming_direction() {
        let q = parse("MATCH (m:Match)<-[:PLAYED_IN]-(p:Person) RETURN p").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].steps[0].0.direction, Direction::In);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_where_with_regex() {
        let q = parse("MATCH (n) WHERE n.domain =~ '^[a-z]+$' RETURN COUNT(*) AS c").unwrap();
        match &q.clauses[0] {
            Clause::Match { where_clause: Some(Expr::Binary { op, .. }), .. } => {
                assert_eq!(*op, BinOp::Regex);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_is_null_and_is_not_null() {
        let e = parse_expr("n.x IS NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: false, .. }));
        let e = parse_expr("n.x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn precedence_and_over_or() {
        let e = parse_expr("a OR b AND c").unwrap();
        match e {
            Expr::Binary { op: BinOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_arithmetic() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn collect_distinct_and_size() {
        let q = parse(
            "MATCH (p:Person)-[:SCORED_GOAL]->(m:Match) \
             WITH m.id AS mid, COLLECT(DISTINCT p.name) AS names \
             WHERE SIZE(names) > 1 RETURN mid, names",
        )
        .unwrap();
        match &q.clauses[1] {
            Clause::With { items, where_clause, .. } => {
                assert_eq!(items.len(), 2);
                assert!(where_clause.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_property_map_in_pattern() {
        let q = parse("MATCH (n:User {verified: true}) RETURN n").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].start.props.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn multiple_rel_types() {
        let q = parse("MATCH (a)-[:X|Y]->(b) RETURN a").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].steps[0].0.types, vec!["X", "Y"]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn exists_keyword_form() {
        let e = parse_expr("EXISTS(n.date)").unwrap();
        assert!(matches!(e, Expr::ExistsProp(_)));
    }

    #[test]
    fn order_by_and_limit() {
        let q = parse("MATCH (n:X) RETURN n.id ORDER BY n.id DESC LIMIT 5").unwrap();
        assert_eq!(q.ret.order_by.len(), 1);
        assert!(q.ret.order_by[0].descending);
        assert_eq!(q.ret.limit, Some(5));
    }

    #[test]
    fn error_on_missing_return() {
        assert!(parse("MATCH (n)").is_err());
    }

    #[test]
    fn error_on_the_papers_syntax_slip() {
        // §4.4: `{2,}` written as `(2,)` inside a string is fine, but a
        // stray `=` where `=~` belongs still parses (it's valid
        // comparison syntax) — whereas a malformed pattern like a
        // dangling operator must not.
        assert!(parse("MATCH (n) WHERE n.x = RETURN COUNT(*)").is_err());
    }

    #[test]
    fn roundtrip_parse_render_parse() {
        let src = "MATCH (t:Tournament)<-[:IN_TOURNAMENT]-(m:Match) \
                   WHERE m.id IS NOT NULL \
                   RETURN COUNT(DISTINCT m.id) AS c LIMIT 3";
        let q1 = parse(src).unwrap();
        let rendered = q1.to_string();
        let q2 = parse(&rendered).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn undirected_pattern() {
        let q = parse("MATCH (a)-[:K]-(b) RETURN a").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].steps[0].0.direction, Direction::Undirected);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn string_predicates_parse_and_render() {
        for src in [
            "MATCH (n:User) WHERE n.name STARTS WITH 'a' RETURN COUNT(*) AS c",
            "MATCH (n:User) WHERE n.name ENDS WITH 'z' RETURN COUNT(*) AS c",
            "MATCH (n:User) WHERE n.bio CONTAINS 'rust' RETURN COUNT(*) AS c",
        ] {
            let q = parse(src).unwrap();
            assert_eq!(parse(&q.to_string()).unwrap(), q, "{src}");
        }
    }

    #[test]
    fn contains_still_works_as_relationship_type() {
        // The CONTAINS keyword must not break `[:CONTAINS]` patterns
        // (the Twitter and Cybersecurity datasets both use the type).
        let q = parse("MATCH (a:OU)-[:CONTAINS]->(u:User) RETURN COUNT(*) AS c").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].steps[0].0.types, vec!["CONTAINS"]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unwind_clause_parses() {
        let q = parse("MATCH (n:A) WITH COLLECT(n.id) AS ids UNWIND ids AS id RETURN id").unwrap();
        assert!(matches!(q.clauses[2], Clause::Unwind { .. }));
    }

    #[test]
    fn variable_length_patterns_parse() {
        let cases = [
            ("MATCH (a)-[:E*]->(b) RETURN a", (1, None)),
            ("MATCH (a)-[:E*3]->(b) RETURN a", (3, Some(3))),
            ("MATCH (a)-[:E*1..4]->(b) RETURN a", (1, Some(4))),
            ("MATCH (a)-[:E*..4]->(b) RETURN a", (1, Some(4))),
            ("MATCH (a)-[:E*2..]->(b) RETURN a", (2, None)),
        ];
        for (src, want) in cases {
            let q = parse(src).unwrap();
            match &q.clauses[0] {
                Clause::Match { patterns, .. } => {
                    assert_eq!(patterns[0].steps[0].0.length, Some(want), "{src}");
                }
                _ => unreachable!(),
            }
            // Round-trips through the renderer.
            let q2 = parse(&q.to_string()).unwrap();
            assert_eq!(q, q2, "{src}");
        }
    }

    #[test]
    fn string_concat_parses_as_add() {
        let e = parse_expr("p.name + ':' + toString(m.score)").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Add, .. }));
    }
}
