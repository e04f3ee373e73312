//! Recursive-descent parser for the supported SQL subset.

use crate::ast::*;
use crate::error::{EngineError, Result, Span};
use crate::lexer::{tokenize_spanned, Token};
use crate::value::{DataType, Value};

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let (tokens, spans) = tokenize_spanned(sql)?;
    let mut p = Parser {
        tokens,
        spans,
        pos: 0,
    };
    let stmt = p.statement()?;
    p.consume_if(&Token::Semicolon);
    if !p.at_end() {
        return Err(p.err(format!("unexpected trailing input: {:?}", p.peek())));
    }
    Ok(stmt)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    Ok(parse_script_spanned(sql)?
        .into_iter()
        .map(|(stmt, _)| stmt)
        .collect())
}

/// Like [`parse_script`], but each statement carries the byte span of its
/// source text (exclusive of the separating semicolon), so callers can
/// attribute per-statement telemetry to the original SQL.
pub fn parse_script_spanned(sql: &str) -> Result<Vec<(Statement, Span)>> {
    let (tokens, spans) = tokenize_spanned(sql)?;
    let mut p = Parser {
        tokens,
        spans,
        pos: 0,
    };
    let mut stmts = Vec::new();
    while !p.at_end() {
        if p.consume_if(&Token::Semicolon) {
            continue;
        }
        let first = p.pos;
        let stmt = p.statement()?;
        stmts.push((stmt, p.span_from(first)));
        if !p.at_end() && !p.consume_if(&Token::Semicolon) {
            return Err(p.err("expected ';' between statements".into()));
        }
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    spans: Vec<Span>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: String) -> EngineError {
        EngineError::Parse {
            message,
            position: self.pos,
        }
    }

    /// Byte span of the token at `pos` (empty when out of range).
    fn span_at(&self, pos: usize) -> Span {
        self.spans.get(pos).copied().unwrap_or_default()
    }

    /// Byte span covering tokens `start .. self.pos` (exclusive end).
    fn span_from(&self, start: usize) -> Span {
        let end = self.pos.min(self.spans.len());
        if start >= end {
            return Span::default();
        }
        self.spans[start].cover(self.spans[end - 1])
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_ahead(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn consume_if(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        if self.consume_if(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}, found {:?}", tok, self.peek())))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw)
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    /// Accept an identifier; certain non-reserved keywords are allowed as
    /// identifiers (column names like `key`, `index` show up in practice).
    fn identifier(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(name)) => Ok(name),
            Some(Token::Keyword(k))
                if matches!(
                    k.as_str(),
                    "KEY"
                        | "INDEX"
                        | "COUNT"
                        | "SUM"
                        | "AVG"
                        | "MIN"
                        | "MAX"
                        | "SET"
                        | "ALL"
                        | "LEFT"
                        | "RIGHT"
                        | "DO"
                        | "TEXT"
                        | "REAL"
                ) =>
            {
                Ok(k.to_lowercase())
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Token::Keyword(k)) => match k.as_str() {
                "SELECT" | "WITH" => Ok(Statement::Query(self.query()?)),
                "EXPLAIN" => {
                    self.pos += 1;
                    let paren_mode = |w: &str| match w {
                        "check" => Some(ExplainMode::Check),
                        "verify" => Some(ExplainMode::Verify),
                        "trace" => Some(ExplainMode::Trace),
                        _ => None,
                    };
                    let mode = if self.consume_keyword("ANALYZE") {
                        ExplainMode::Analyze
                    } else if let Some(mode) = (self.peek() == Some(&Token::LParen)
                        && self.peek_ahead(2) == Some(&Token::RParen))
                    .then(|| match self.peek_ahead(1) {
                        Some(Token::Ident(w)) => paren_mode(&w.to_ascii_lowercase()),
                        _ => None,
                    })
                    .flatten()
                    {
                        self.pos += 3;
                        mode
                    } else {
                        ExplainMode::Plan
                    };
                    Ok(Statement::Explain {
                        mode,
                        query: self.query()?,
                    })
                }
                "CREATE" => self.create(),
                "DROP" => self.drop_table(),
                "INSERT" => self.insert(),
                "DELETE" => self.delete(),
                "UPDATE" => self.update(),
                "BEGIN" => {
                    self.pos += 1;
                    let _ = self.consume_keyword("TRANSACTION");
                    Ok(Statement::Begin)
                }
                "COMMIT" => {
                    self.pos += 1;
                    let _ = self.consume_keyword("TRANSACTION");
                    Ok(Statement::Commit)
                }
                "ROLLBACK" => {
                    self.pos += 1;
                    let _ = self.consume_keyword("TRANSACTION");
                    Ok(Statement::Rollback)
                }
                other => Err(self.err(format!("unsupported statement '{other}'"))),
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        let unique = self.consume_keyword("UNIQUE");
        // TEMP/TEMPORARY are accepted and ignored (all tables are in-memory).
        let _ = self.consume_keyword("TEMP") || self.consume_keyword("TEMPORARY");
        if self.consume_keyword("TABLE") {
            if unique {
                return Err(self.err("UNIQUE TABLE is not valid".into()));
            }
            self.create_table()
        } else if self.consume_keyword("INDEX") {
            self.create_index(unique)
        } else {
            Err(self.err("expected TABLE or INDEX after CREATE".into()))
        }
    }

    fn if_not_exists(&mut self) -> Result<bool> {
        if self.consume_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        let if_not_exists = self.if_not_exists()?;
        let name = self.identifier()?;
        if self.consume_keyword("AS") {
            let query = self.query()?;
            return Ok(Statement::CreateTableAs {
                name,
                if_not_exists,
                query,
            });
        }
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key: Vec<String> = Vec::new();
        loop {
            if self.consume_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.identifier()?);
                    if !self.consume_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else {
                let col_name = self.identifier()?;
                let ty = self.data_type()?;
                // Inline constraints.
                loop {
                    if self.consume_keyword("PRIMARY") {
                        self.expect_keyword("KEY")?;
                        primary_key.push(col_name.clone());
                    } else if self.consume_keyword("NOT") {
                        self.expect_keyword("NULL")?;
                    } else if self.consume_keyword("UNIQUE") {
                        // Treated as single-column primary key when no PK given.
                        if primary_key.is_empty() {
                            primary_key.push(col_name.clone());
                        }
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef { name: col_name, ty });
            }
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            if_not_exists,
            columns,
            primary_key,
        }))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let ty = match self.advance() {
            Some(Token::Keyword(k)) => match k.as_str() {
                "INTEGER" | "INT" | "BIGINT" => DataType::Integer,
                "REAL" | "FLOAT" => DataType::Real,
                "DOUBLE" => {
                    let _ = self.consume_keyword("PRECISION");
                    DataType::Real
                }
                "TEXT" => DataType::Text,
                "VARCHAR" => {
                    // Optional length argument.
                    if self.consume_if(&Token::LParen) {
                        let _ = self.advance();
                        self.expect(&Token::RParen)?;
                    }
                    DataType::Text
                }
                other => return Err(self.err(format!("unknown type '{other}'"))),
            },
            other => return Err(self.err(format!("expected a type, found {other:?}"))),
        };
        Ok(ty)
    }

    fn create_index(&mut self, unique: bool) -> Result<Statement> {
        let if_not_exists = self.if_not_exists()?;
        let name = self.identifier()?;
        self.expect_keyword("ON")?;
        let table = self.identifier()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.identifier()?);
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
            if_not_exists,
        }))
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let if_exists = if self.consume_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table_span = self.span_at(self.pos);
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if self.consume_if(&Token::LParen) {
            loop {
                columns.push(self.identifier()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        let source = if self.consume_keyword("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.consume_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(self.query()?)
        };
        let on_conflict = if !self.consume_keyword("ON") {
            None
        } else if matches!(self.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case("DUPLICATE"))
        {
            // MySQL's spelling: `ON DUPLICATE KEY UPDATE col = expr, …`
            // targets the primary key (an empty target).
            self.pos += 1;
            self.expect_keyword("KEY")?;
            self.expect_keyword("UPDATE")?;
            Some(OnConflict {
                target_columns: Vec::new(),
                action: ConflictAction::DoUpdate(self.assignments()?),
            })
        } else {
            self.expect_keyword("CONFLICT")?;
            let mut target_columns = Vec::new();
            if self.consume_if(&Token::LParen) {
                loop {
                    target_columns.push(self.identifier()?);
                    if !self.consume_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            self.expect_keyword("DO")?;
            let action = if self.consume_keyword("NOTHING") {
                ConflictAction::DoNothing
            } else {
                self.expect_keyword("UPDATE")?;
                self.expect_keyword("SET")?;
                ConflictAction::DoUpdate(self.assignments()?)
            };
            Some(OnConflict {
                target_columns,
                action,
            })
        };
        Ok(Statement::Insert(Insert {
            table,
            table_span,
            columns,
            source,
            on_conflict,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table_span = self.span_at(self.pos);
        let table = self.identifier()?;
        let predicate = if self.consume_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            table_span,
            predicate,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword("UPDATE")?;
        let table_span = self.span_at(self.pos);
        let table = self.identifier()?;
        self.expect_keyword("SET")?;
        let assignments = self.assignments()?;
        let predicate = if self.consume_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            table_span,
            assignments,
            predicate,
        })
    }

    /// `col = expr, …` after `UPDATE t SET`, `DO UPDATE SET` or
    /// `ON DUPLICATE KEY UPDATE`.
    fn assignments(&mut self) -> Result<Vec<(String, Expr)>> {
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect(&Token::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.consume_if(&Token::Comma) {
                return Ok(assignments);
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.consume_keyword("WITH") {
            loop {
                let name = self.identifier()?;
                self.expect_keyword("AS")?;
                self.expect(&Token::LParen)?;
                let query = self.query()?;
                self.expect(&Token::RParen)?;
                ctes.push(Cte { name, query });
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.consume_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                order_by.push(self.order_item()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.consume_keyword("LIMIT") {
            limit = Some(self.expr()?);
            if self.consume_keyword("OFFSET") {
                offset = Some(self.expr()?);
            }
        }
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_primary()?;
        while self.consume_keyword("UNION") {
            let all = self.consume_keyword("ALL");
            let right = self.set_primary()?;
            left = SetExpr::Union {
                left: Box::new(left),
                right: Box::new(right),
                all,
            };
        }
        Ok(left)
    }

    fn set_primary(&mut self) -> Result<SetExpr> {
        if self.consume_if(&Token::LParen) {
            // Parenthesized query body.
            let inner = self.set_expr()?;
            self.expect(&Token::RParen)?;
            Ok(inner)
        } else {
            Ok(SetExpr::Select(Box::new(self.select()?)))
        }
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword("SELECT")?;
        let distinct = self.consume_keyword("DISTINCT");
        let _ = self.consume_keyword("ALL");
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.consume_keyword("FROM") {
            loop {
                from.push(self.table_ref()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.consume_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.consume_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.consume_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.consume_if(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(Token::Ident(name)), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_ahead(1), self.peek_ahead(2))
        {
            let name = name.clone();
            let span = self.span_at(self.pos).cover(self.span_at(self.pos + 2));
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(name, span));
        }
        let expr = self.expr()?;
        let alias = if self.consume_keyword("AS") {
            Some(self.identifier()?)
        } else if let Some(Token::Ident(_)) = self.peek() {
            // Implicit alias: `SELECT a b FROM ...` — allow only a bare ident.
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut base = self.table_factor()?;
        loop {
            let kind = if self.consume_keyword("JOIN") || {
                if self.peek_keyword("INNER") {
                    self.pos += 1;
                    self.expect_keyword("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                JoinKind::Inner
            } else if self.peek_keyword("LEFT") {
                self.pos += 1;
                let _ = self.consume_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else if self.peek_keyword("CROSS") {
                self.pos += 1;
                self.expect_keyword("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.table_factor()?;
            let on = if kind != JoinKind::Cross && self.consume_keyword("ON") {
                Some(self.expr()?)
            } else {
                None
            };
            base = TableRef::Join {
                left: Box::new(base),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(base)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.consume_if(&Token::LParen) {
            let query = self.query()?;
            self.expect(&Token::RParen)?;
            let alias =
                if self.consume_keyword("AS") || matches!(self.peek(), Some(Token::Ident(_))) {
                    self.identifier()?
                } else {
                    return Err(self.err("derived table requires an alias".into()));
                };
            Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            })
        } else {
            let span = self.span_at(self.pos);
            let mut name = self.identifier()?;
            // Dotted table names (e.g. the virtual `sys.metrics`) fold into
            // a single qualified name; resolution decides what it means.
            if self.consume_if(&Token::Dot) {
                name = format!("{name}.{}", self.identifier()?);
            }
            let alias =
                if self.consume_keyword("AS") || matches!(self.peek(), Some(Token::Ident(_))) {
                    Some(self.identifier()?)
                } else {
                    None
                };
            Ok(TableRef::Named { name, alias, span })
        }
    }

    fn order_item(&mut self) -> Result<OrderItem> {
        let expr = self.expr()?;
        let descending = if self.consume_keyword("DESC") {
            true
        } else {
            let _ = self.consume_keyword("ASC");
            false
        };
        Ok(OrderItem { expr, descending })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let start = self.pos;
        let mut left = self.and_expr()?;
        while self.consume_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
                span: self.span_from(start),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let start = self.pos;
        let mut left = self.not_expr()?;
        while self.consume_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
                span: self.span_from(start),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        let start = self.pos;
        if self.consume_keyword("NOT") {
            let inner = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
                span: self.span_from(start),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let start = self.pos;
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.consume_keyword("IS") {
            let negated = self.consume_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
                span: self.span_from(start),
            });
        }
        let negated = if self.peek_keyword("NOT")
            && matches!(
                self.peek_ahead(1),
                Some(Token::Keyword(k)) if k == "IN" || k == "BETWEEN" || k == "LIKE"
            ) {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.consume_keyword("IN") {
            self.expect(&Token::LParen)?;
            if matches!(self.peek(), Some(Token::Keyword(k)) if k == "SELECT" || k == "WITH") {
                let query = self.query()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                    span: self.span_from(start),
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
                span: self.span_from(start),
            });
        }
        if self.consume_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
                span: self.span_from(start),
            });
        }
        if self.consume_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
                span: self.span_from(start),
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
                span: self.span_from(start),
            })
        } else {
            Ok(left)
        }
    }

    fn additive(&mut self) -> Result<Expr> {
        let start = self.pos;
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                Some(Token::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
                span: self.span_from(start),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let start = self.pos;
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
                span: self.span_from(start),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        let start = self.pos;
        if self.consume_if(&Token::Minus) {
            let inner = self.unary()?;
            Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
                span: self.span_from(start),
            })
        } else if self.consume_if(&Token::Plus) {
            self.unary()
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let start = self.pos;
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(v), self.span_from(start)))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(v), self.span_from(start)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::text(s), self.span_from(start)))
            }
            Some(Token::Param(i)) => {
                self.pos += 1;
                Ok(Expr::Param(i, self.span_from(start)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                if matches!(self.peek(), Some(Token::Keyword(k)) if k == "SELECT" || k == "WITH") {
                    let query = self.query()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(query), self.span_from(start)));
                }
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Keyword(k)) => self.keyword_primary(&k),
            Some(Token::Ident(_)) => self.ident_primary(),
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn keyword_primary(&mut self, k: &str) -> Result<Expr> {
        let start = self.pos;
        match k {
            "NULL" => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null, self.span_from(start)))
            }
            "TRUE" => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(1), self.span_from(start)))
            }
            "FALSE" => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(0), self.span_from(start)))
            }
            "CASE" => self.case_expr(),
            "CAST" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let expr = self.expr()?;
                self.expect_keyword("AS")?;
                let ty = self.data_type()?;
                self.expect(&Token::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(expr),
                    ty,
                    span: self.span_from(start),
                })
            }
            "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => {
                // Aggregate unless not followed by '(' (then treat as column).
                if self.peek_ahead(1) != Some(&Token::LParen) {
                    self.pos += 1;
                    return self.ident_tail(k.to_lowercase(), start);
                }
                let func = match k {
                    "COUNT" => AggregateFunc::Count,
                    "SUM" => AggregateFunc::Sum,
                    "AVG" => AggregateFunc::Avg,
                    "MIN" => AggregateFunc::Min,
                    "MAX" => AggregateFunc::Max,
                    _ => unreachable!(),
                };
                self.pos += 2; // keyword + '('
                let distinct = self.consume_keyword("DISTINCT");
                let arg = if self.consume_if(&Token::Star) {
                    if func != AggregateFunc::Count {
                        return Err(self.err(format!("{k}(*) is only valid for COUNT")));
                    }
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect(&Token::RParen)?;
                Ok(Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                    span: self.span_from(start),
                })
            }
            "ROW_NUMBER" | "RANK" | "DENSE_RANK" => {
                let func = match k {
                    "ROW_NUMBER" => WindowFunc::RowNumber,
                    "RANK" => WindowFunc::Rank,
                    _ => WindowFunc::DenseRank,
                };
                self.pos += 1;
                self.expect(&Token::LParen)?;
                self.expect(&Token::RParen)?;
                self.expect_keyword("OVER")?;
                self.expect(&Token::LParen)?;
                let mut partition_by = Vec::new();
                if self.consume_keyword("PARTITION") {
                    self.expect_keyword("BY")?;
                    loop {
                        partition_by.push(self.expr()?);
                        if !self.consume_if(&Token::Comma) {
                            break;
                        }
                    }
                }
                let mut order_by = Vec::new();
                if self.consume_keyword("ORDER") {
                    self.expect_keyword("BY")?;
                    loop {
                        order_by.push(self.order_item()?);
                        if !self.consume_if(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                Ok(Expr::WindowRowNumber {
                    func,
                    partition_by,
                    order_by,
                    span: self.span_from(start),
                })
            }
            "EXISTS" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let query = self.query()?;
                self.expect(&Token::RParen)?;
                Ok(Expr::Exists {
                    query: Box::new(query),
                    negated: false,
                    span: self.span_from(start),
                })
            }
            "EXCLUDED" | "VALUES" => {
                // `excluded.col` inside ON CONFLICT DO UPDATE, or MySQL's
                // `VALUES(col)` inside ON DUPLICATE KEY UPDATE: both name
                // the row proposed for insertion.
                self.pos += 1;
                let name = if k == "EXCLUDED" {
                    self.expect(&Token::Dot)?;
                    self.identifier()?
                } else {
                    self.expect(&Token::LParen)?;
                    let name = self.identifier()?;
                    self.expect(&Token::RParen)?;
                    name
                };
                Ok(Expr::Column {
                    qualifier: Some("excluded".into()),
                    name,
                    span: self.span_from(start),
                })
            }
            other => Err(self.err(format!("unexpected keyword '{other}' in expression"))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let start = self.pos;
        self.expect_keyword("CASE")?;
        let operand = if !self.peek_keyword("WHEN") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.consume_keyword("WHEN") {
            let when = self.expr()?;
            self.expect_keyword("THEN")?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch".into()));
        }
        let else_expr = if self.consume_keyword("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
            span: self.span_from(start),
        })
    }

    fn ident_primary(&mut self) -> Result<Expr> {
        let start = self.pos;
        let name = self.identifier()?;
        self.ident_tail(name, start)
    }

    /// Continue parsing a primary whose leading identifier (`name`) has
    /// already been consumed: function call, qualified column, or bare column.
    /// `start` is the token position of that identifier.
    fn ident_tail(&mut self, name: String, start: usize) -> Result<Expr> {
        // Function call?
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.consume_if(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function {
                name: name.to_uppercase(),
                args,
                span: self.span_from(start),
            });
        }
        // Qualified column?
        if self.consume_if(&Token::Dot) {
            let col = self.identifier()?;
            return Ok(Expr::Column {
                qualifier: Some(name),
                name: col,
                span: self.span_from(start),
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name,
            span: self.span_from(start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sql: &str) -> Statement {
        parse_statement(sql).unwrap_or_else(|e| panic!("parse failed for {sql:?}: {e}"))
    }

    #[test]
    fn parses_select_with_joins_and_group_by() {
        let stmt = parse(
            "SELECT X_nj.j AS j, Y_nk.k AS k, SUM(X_nj.w * Y_nk.w) AS w \
             FROM X_nj, Y_nk WHERE X_nj.n = Y_nk.n GROUP BY X_nj.j, Y_nk.k",
        );
        let Statement::Query(q) = stmt else {
            panic!("expected query")
        };
        let SetExpr::Select(s) = q.body else {
            panic!("expected select")
        };
        assert_eq!(s.projection.len(), 3);
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.group_by.len(), 2);
    }

    #[test]
    fn parses_with_cte_and_union_all() {
        let stmt = parse(
            "WITH a AS (SELECT 1 AS x), b AS (SELECT 2 AS x) \
             SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY x DESC LIMIT 1",
        );
        let Statement::Query(q) = stmt else { panic!() };
        assert_eq!(q.ctes.len(), 2);
        assert!(matches!(q.body, SetExpr::Union { all: true, .. }));
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        assert!(q.limit.is_some());
    }

    #[test]
    fn parses_row_number_window() {
        let stmt =
            parse("SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC) AS r FROM t");
        let Statement::Query(q) = stmt else { panic!() };
        let SetExpr::Select(s) = q.body else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.projection[2] else {
            panic!()
        };
        assert!(matches!(expr, Expr::WindowRowNumber { .. }));
    }

    #[test]
    fn parses_insert_on_conflict_do_update() {
        let stmt = parse(
            "INSERT INTO corpus (j, k, w) SELECT j, k, w FROM P_jk \
             ON CONFLICT (j, k) DO UPDATE SET w = corpus.w + excluded.w",
        );
        let Statement::Insert(ins) = stmt else {
            panic!()
        };
        assert_eq!(ins.columns, vec!["j", "k", "w"]);
        let oc = ins.on_conflict.unwrap();
        assert_eq!(oc.target_columns, vec!["j", "k"]);
        let ConflictAction::DoUpdate(assignments) = oc.action else {
            panic!()
        };
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].0, "w");
    }

    /// MySQL's upsert is a second spelling of the same node: an empty
    /// target (the primary key) and `VALUES(col)` read as `excluded.col`.
    #[test]
    fn parses_insert_on_duplicate_key_update_as_the_same_upsert() {
        let conflict = |sql: &str| match parse(sql) {
            Statement::Insert(ins) => ins.on_conflict.unwrap(),
            other => panic!("expected an insert, got {other:?}"),
        };
        let pg = conflict(
            "INSERT INTO corpus (j, k, w) SELECT j, k, w FROM P_jk \
             ON CONFLICT (j, k) DO UPDATE SET w = corpus.w + excluded.w",
        );
        let my = conflict(
            "INSERT INTO corpus (j, k, w) SELECT j, k, w FROM P_jk \
             on duplicate key update w = corpus.w + VALUES(w)",
        );
        assert!(my.target_columns.is_empty());
        assert!(matches!(my.action, ConflictAction::DoUpdate(_)));
        // Spans compare equal, so this is the whole `SET` list.
        assert_eq!(my.action, pg.action);
    }

    /// `DUPLICATE` stays an ordinary identifier.
    #[test]
    fn duplicate_is_not_reserved() {
        parse("CREATE TABLE t (duplicate INTEGER)");
        parse("SELECT duplicate FROM t");
    }

    #[test]
    fn parses_create_table_with_pk() {
        let stmt = parse(
            "CREATE TABLE IF NOT EXISTS m_corpus (j TEXT, k INTEGER, w REAL, PRIMARY KEY (j, k))",
        );
        let Statement::CreateTable(ct) = stmt else {
            panic!()
        };
        assert!(ct.if_not_exists);
        assert_eq!(ct.columns.len(), 3);
        assert_eq!(ct.primary_key, vec!["j", "k"]);
    }

    #[test]
    fn parses_case_cast_functions() {
        parse("SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END, CAST(x AS REAL), POW(w, 2.0), LN(w) FROM t");
    }

    #[test]
    fn parses_concat_and_modulo() {
        let stmt = parse("SELECT 'k:' || name FROM t WHERE id % 10 <= 3");
        let Statement::Query(_) = stmt else { panic!() };
    }

    #[test]
    fn parses_derived_table() {
        parse(
            "SELECT r.n FROM (SELECT n, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC) AS r FROM t) AS r WHERE r.r = 1",
        );
    }

    #[test]
    fn parses_select_without_from() {
        parse("SELECT 13 AS n");
    }

    #[test]
    fn parses_delete_update() {
        parse("DELETE FROM t WHERE id < 5");
        parse("UPDATE params SET a = 0.5, b = 1.0 WHERE model = 'm'");
    }

    #[test]
    fn parses_script() {
        let stmts =
            parse_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2);").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT 1 extra garbage ,,,").is_err());
    }

    #[test]
    fn parses_left_join() {
        let stmt = parse("SELECT a.x FROM a LEFT JOIN b ON a.id = b.id");
        let Statement::Query(q) = stmt else { panic!() };
        let SetExpr::Select(s) = q.body else { panic!() };
        assert!(matches!(
            &s.from[0],
            TableRef::Join {
                kind: JoinKind::Left,
                ..
            }
        ));
    }

    #[test]
    fn parses_in_between_like() {
        parse("SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 0 AND 9 AND c LIKE 'x%' AND d NOT IN (4)");
    }

    #[test]
    fn parses_count_distinct() {
        let stmt = parse("SELECT COUNT(DISTINCT j) FROM x");
        let Statement::Query(q) = stmt else { panic!() };
        let SetExpr::Select(s) = q.body else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert!(matches!(
            expr,
            Expr::Aggregate {
                func: AggregateFunc::Count,
                distinct: true,
                ..
            }
        ));
    }
}
